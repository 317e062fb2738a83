// Package controller implements FlexWAN's centralized optical controller
// (§4.3–4.4 of the paper): the global manager (IP and optical topology
// managers plus the device manager), the network planning and optical
// restoration modules, and the data-stream-driven failure handling loop.
//
// The controller is the single writer of optical configuration. Every
// wavelength it provisions is pushed as one consistent set of documents —
// the transponder pair's mode and spectrum, and an identical passband on
// the WSS of every fiber along the path — which is how the paper achieves
// "zero spectrum inconsistency and conflict" in a multi-vendor backbone.
package controller

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"syscall"

	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/telemetry"
)

var _ telemetry.Sessions = (*DevMgr)(nil)

// DevMgr is the device manager: the registry of managed devices, their
// management sessions, and the per-site transponder pools the controller
// draws on when materializing wavelengths onto hardware.
type DevMgr struct {
	mu      sync.Mutex
	devices map[string]devmodel.Descriptor
	clients map[string]*netconf.Client
	// freeTx holds unassigned transponder IDs per site, kept sorted for
	// deterministic assignment.
	freeTx map[string][]string
	// wssByFiber maps a fiber segment to the WSS device controlling its
	// spectrum.
	wssByFiber map[string]string
	// assignment maps a transponder ID to the channel it carries.
	assignment map[string]string

	dialOpts netconf.DialOptions
	retry    RetryPolicy
}

// NewDevMgr returns an empty device manager.
func NewDevMgr() *DevMgr {
	return &DevMgr{
		devices:    make(map[string]devmodel.Descriptor),
		clients:    make(map[string]*netconf.Client),
		freeTx:     make(map[string][]string),
		wssByFiber: make(map[string]string),
		assignment: make(map[string]string),
		retry:      DefaultRetryPolicy(),
	}
}

// SetDialOptions changes the timeouts used for device sessions (both
// Register and redials). Drills shorten these so injected RPC drops
// surface quickly.
func (d *DevMgr) SetDialOptions(opts netconf.DialOptions) {
	d.mu.Lock()
	d.dialOpts = opts
	d.mu.Unlock()
}

// SetRetryPolicy changes the per-RPC retry policy used by Call.
func (d *DevMgr) SetRetryPolicy(p RetryPolicy) {
	d.mu.Lock()
	d.retry = p
	d.mu.Unlock()
}

// RetryPolicy returns the active per-RPC retry policy.
func (d *DevMgr) RetryPolicy() RetryPolicy {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.retry
}

// Register registers one device: RegisterAll with one descriptor.
func (d *DevMgr) Register(desc devmodel.Descriptor) error {
	return d.RegisterAll([]devmodel.Descriptor{desc})[0]
}

// RegisterAll validates the descriptors, dials every device and reads its
// hello at once, then indexes the devices in input order under one lock,
// and returns the errors by position. The controller locates devices by the
// IP address in the descriptor (§4.3). Every check runs before its device
// is indexed, and a clash — a duplicate ID, two WSSes on one fiber — goes
// to the first in input order, as registering one at a time would. A
// rejected registration leaves no phantom entry behind and closes its
// session, so a corrected re-registration under the same ID succeeds.
func (d *DevMgr) RegisterAll(descs []devmodel.Descriptor) []error {
	errs := make([]error, len(descs))
	clients := make([]*netconf.Client, len(descs))
	d.mu.Lock()
	opts := d.dialOpts
	d.mu.Unlock()
	var wg sync.WaitGroup
	for i, desc := range descs {
		errs[i] = desc.Validate()
		if errs[i] == nil && desc.Class == devmodel.ClassWSS && desc.Fiber == "" {
			errs[i] = fmt.Errorf("controller: WSS %s has no fiber binding", desc.ID)
		}
		if errs[i] != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			clients[i], errs[i] = dial(desc, opts)
		}()
	}
	wg.Wait()
	d.mu.Lock()
	for i, desc := range descs {
		if errs[i] == nil {
			errs[i] = d.indexLocked(desc, clients[i])
		}
	}
	d.mu.Unlock()
	for i, client := range clients {
		if errs[i] != nil && client != nil {
			client.Close()
		}
	}
	return errs
}

// indexLocked adds a verified device and its session to the registry, or
// refuses it when its ID or its WSS's fiber is taken.
func (d *DevMgr) indexLocked(desc devmodel.Descriptor, client *netconf.Client) error {
	if _, dup := d.devices[desc.ID]; dup {
		return fmt.Errorf("controller: duplicate device %s", desc.ID)
	}
	if desc.Class == devmodel.ClassWSS {
		if prev, dup := d.wssByFiber[desc.Fiber]; dup {
			return fmt.Errorf("controller: fiber %s already controlled by WSS %s", desc.Fiber, prev)
		}
	}
	d.devices[desc.ID] = desc
	d.clients[desc.ID] = client
	switch desc.Class {
	case devmodel.ClassTransponder:
		d.freeTx[desc.Site] = insertSorted(d.freeTx[desc.Site], desc.ID)
	case devmodel.ClassWSS:
		d.wssByFiber[desc.Fiber] = desc.ID
	}
	return nil
}

// dial opens a session to the device's address and checks that its hello
// names the registered identity. A hello that cannot be read is a failed
// dial — transient, never an unverified session: skipping the check would
// silently disable the miswiring defense. A hello under another ID is
// permanent: the management network is miswired, or a restart handed the
// address to a different device.
func dial(desc devmodel.Descriptor, opts netconf.DialOptions) (*netconf.Client, error) {
	client, err := netconf.DialWithOptions(desc.Address, opts)
	if err != nil {
		return nil, fmt.Errorf("controller: dialing %s at %s: %w", desc.ID, desc.Address, err)
	}
	var hello devmodel.Descriptor
	if err := client.Hello(&hello); err != nil {
		client.Close()
		return nil, fmt.Errorf("controller: hello from %s at %s: %w", desc.ID, desc.Address, err)
	}
	if hello.ID != "" && hello.ID != desc.ID {
		client.Close()
		return nil, permanent{fmt.Errorf("controller: device at %s identifies as %s, registered as %s",
			desc.Address, hello.ID, desc.ID)}
	}
	return client, nil
}

func insertSorted(s []string, v string) []string {
	i := sort.SearchStrings(s, v)
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Client returns the management session for the device.
func (d *DevMgr) Client(id string) (*netconf.Client, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.clients[id]
	return c, ok
}

// LiveClient returns a live management session for the device: the pooled
// one while its connection stands, otherwise — the dead one dropped — a
// fresh dial to the registered address that greets under the registered
// ID, as a redial in Call does. The session stays the manager's: callers
// borrow it and never close it. It implements telemetry.Sessions with
// Client, so the collector polls and listens on the sessions the
// controller configures through.
func (d *DevMgr) LiveClient(id string) (*netconf.Client, error) {
	if client, ok := d.Client(id); ok {
		if client.Err() == nil {
			return client, nil
		}
		d.invalidate(id, client)
	}
	client, _, err := d.session(id)
	return client, err
}

// Descriptor returns the registered identity of the device.
func (d *DevMgr) Descriptor(id string) (devmodel.Descriptor, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	desc, ok := d.devices[id]
	return desc, ok
}

// Devices returns all registered descriptors sorted by ID.
func (d *DevMgr) Devices() []devmodel.Descriptor {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]devmodel.Descriptor, 0, len(d.devices))
	for _, desc := range d.devices {
		out = append(out, desc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DeviceHealth is one device's fleet-health view: its descriptor, the
// channel assignment (transponders only), and whether the manager holds a
// live NETCONF session right now — one whose read loop has not seen the
// connection end. SessionUp false does not mean the device is down —
// sessions are dialed lazily and redialed on demand — it means the next
// Call pays a dial.
type DeviceHealth struct {
	devmodel.Descriptor
	Assignment string `json:"assignment,omitempty"`
	SessionUp  bool   `json:"session_up"`
}

// Health reports the fleet's registration and session state, sorted by
// device ID — the backing for the service's /v1/devices endpoint.
func (d *DevMgr) Health() []DeviceHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]DeviceHealth, 0, len(d.devices))
	for id, desc := range d.devices {
		client := d.clients[id]
		out = append(out, DeviceHealth{
			Descriptor: desc,
			Assignment: d.assignment[id],
			SessionUp:  client != nil && client.Err() == nil,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WSSForFiber returns the WSS device controlling the fiber's spectrum.
func (d *DevMgr) WSSForFiber(fiber string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.wssByFiber[fiber]
	return id, ok
}

// ClaimTransponder takes one free transponder at the site for the
// channel. Assignment is deterministic (lowest ID first).
func (d *DevMgr) ClaimTransponder(site, channel string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pool := d.freeTx[site]
	if len(pool) == 0 {
		return "", fmt.Errorf("controller: no free transponder at site %s for channel %s", site, channel)
	}
	id := pool[0]
	d.freeTx[site] = pool[1:]
	d.assignment[id] = channel
	return id, nil
}

// ClaimSpecific takes a particular free transponder for the channel —
// the standby-takeover path, where assignments are dictated by a
// snapshot rather than chosen from the pool.
func (d *DevMgr) ClaimSpecific(id, channel string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	desc, ok := d.devices[id]
	if !ok {
		return fmt.Errorf("controller: unknown transponder %s", id)
	}
	if prev, taken := d.assignment[id]; taken {
		return fmt.Errorf("controller: transponder %s already carries %s", id, prev)
	}
	pool := d.freeTx[desc.Site]
	i := sort.SearchStrings(pool, id)
	if i >= len(pool) || pool[i] != id {
		return fmt.Errorf("controller: transponder %s not in site %s free pool", id, desc.Site)
	}
	d.freeTx[desc.Site] = append(pool[:i], pool[i+1:]...)
	d.assignment[id] = channel
	return nil
}

// ReleaseTransponder returns a transponder to its site's free pool.
func (d *DevMgr) ReleaseTransponder(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	desc, ok := d.devices[id]
	if !ok {
		return
	}
	if _, assigned := d.assignment[id]; !assigned {
		return
	}
	delete(d.assignment, id)
	d.freeTx[desc.Site] = insertSorted(d.freeTx[desc.Site], id)
}

// Assignment returns the channel a transponder carries, if any.
func (d *DevMgr) Assignment(id string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ch, ok := d.assignment[id]
	return ch, ok
}

// FreeTransponders reports the free pool size at the site.
func (d *DevMgr) FreeTransponders(site string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.freeTx[site])
}

// ErrDeviceDown marks a request that gave up because the device's
// management address actively refused the connection: no agent is
// listening there, and a backoff ladder of tens of milliseconds will not
// outlast a reboot. The degraded push skips and reports such a device;
// Repair reconverges it once it is back.
var ErrDeviceDown = errors.New("device down")

// permanent marks a session failure no retry can cure: the caller named a
// device that was never registered, or the address answers as a different
// device (a miswired management network).
type permanent struct{ error }

// Request is one device's RPC in a CallAll.
type Request struct {
	ID, Op  string
	In, Out interface{}
}

// attempt is one try at a request: the session it ran on and whether that
// session came from the pool, with the RPC's error — or, when no session
// could be had (client nil), the dial's.
type attempt struct {
	client *netconf.Client
	pooled bool
	err    error
}

// Call performs one RPC against the device: CallAll with one request.
func (d *DevMgr) Call(id, op string, in, out interface{}) error {
	return d.CallAll([]Request{{id, op, in, out}}, 0)[0]
}

// CallAll performs the requests and returns their errors by position. It
// writes every first attempt back to back from the calling goroutine on
// the pooled sessions and takes the replies in completion order, so a
// fleet that answers costs no goroutine and one wake-up per reply. A request whose first attempt fails, or whose device
// has no pooled session to try, runs the rest of the ladder on a goroutine
// of its own from the moment that is known, beside the requests still in
// flight. window > 0 bounds the requests in flight (1 is fully serial: a
// request's ladder ends before the next is sent); otherwise all are.
//
// This is the hardened path every configuration push and audit read uses.
func (d *DevMgr) CallAll(reqs []Request, window int) []error {
	type sentCall struct {
		i      int
		client *netconf.Client
	}
	errs := make([]error, len(reqs))
	sent := make(map[*netconf.Call]sentCall, len(reqs))
	first := make(chan *netconf.Call, len(reqs)) // completed first attempts
	climbed := make(chan struct{}, len(reqs))    // ladders that reached their end
	climb := func(i int, from func() attempt) {
		go func() {
			errs[i] = d.ladder(reqs[i], from())
			climbed <- struct{}{}
		}()
	}
	next, inflight := 0, 0
	for done := 0; done < len(reqs); {
		for ; next < len(reqs) && (window <= 0 || inflight < window); next++ {
			i, r := next, reqs[next]
			inflight++
			if client, ok := d.Client(r.ID); ok {
				sent[client.Go(r.Op, r.In, r.Out, first)] = sentCall{i, client}
			} else {
				climb(i, func() attempt { return d.try(r) })
			}
		}
		select {
		case call := <-first:
			if s := sent[call]; call.Err != nil {
				climb(s.i, func() attempt { return attempt{s.client, true, call.Err} })
				continue
			}
		case <-climbed:
		}
		done++
		inflight--
	}
	return errs
}

// try makes one attempt at the request on the device's session, dialing
// one if the pool has none.
func (d *DevMgr) try(r Request) attempt {
	client, pooled, err := d.session(r.ID)
	if err == nil {
		err = client.Call(r.Op, r.In, r.Out)
	}
	return attempt{client, pooled, err}
}

// ladder takes a request from its latest attempt to its end, classifying
// each failure before spending time on it:
//
//   - A pooled session (one this request did not dial) that is dead or dies
//     mid-call says nothing about the device, only about the session. It
//     is dropped and redialed at once, one time, without consuming an
//     attempt or a backoff — what net/http does for a stale idle
//     connection.
//   - A refused dial means the agent is not listening: ErrDeviceDown,
//     immediately.
//   - An unregistered ID or an identity mismatch on redial is a caller or
//     wiring bug and returns immediately.
//   - A device NACK (netconf.RPCError) returns immediately — the
//     rejection is intentional and retrying the same document cannot
//     succeed.
//   - Everything ambiguous — a timed-out RPC (dropped request or reply),
//     a dial or hello that times out or cannot be read, a session lost on
//     a connection this request dialed itself — tears the session down and
//     retries on a fresh dial after a capped, jittered exponential
//     backoff.
func (d *DevMgr) ladder(r Request, a attempt) error {
	pol := d.RetryPolicy()
	staleRedialed := false
	for n := 1; a.err != nil; a = d.try(r) {
		var perm permanent
		switch {
		case a.client != nil:
			if !netconf.IsTransient(a.err) {
				return a.err
			}
			// The session misbehaved; drop it so the next attempt
			// redials. (Another goroutine may already have swapped it —
			// invalidate only our instance.)
			d.invalidate(r.ID, a.client)
			if a.pooled && !staleRedialed && errors.Is(a.err, netconf.ErrSessionLost) {
				staleRedialed = true
				continue
			}
		case errors.As(a.err, &perm):
			return a.err
		case errors.Is(a.err, syscall.ECONNREFUSED):
			return fmt.Errorf("controller: %s on %s: %w: %w", r.Op, r.ID, ErrDeviceDown, a.err)
		}
		if n >= pol.maxAttempts() {
			return fmt.Errorf("controller: %s on %s failed after %d attempts: %w", r.Op, r.ID, n, a.err)
		}
		pol.sleep(pol.Backoff(n))
		n++
	}
	return nil
}

// session returns the device's management session and whether it came
// from the pool (true) or was dialed by this call (false), redialing the
// registered address if the previous session was invalidated.
func (d *DevMgr) session(id string) (client *netconf.Client, pooled bool, err error) {
	d.mu.Lock()
	client, ok := d.clients[id]
	desc, known := d.devices[id]
	opts := d.dialOpts
	d.mu.Unlock()
	if ok {
		return client, true, nil
	}
	if !known {
		return nil, false, permanent{fmt.Errorf("controller: device %s not registered", id)}
	}
	// Re-verify identity, as registration does: a restart must not
	// silently hand the session to a different device on a recycled
	// address.
	fresh, err := dial(desc, opts)
	if err != nil {
		return nil, false, err
	}
	d.mu.Lock()
	if cur, ok := d.clients[id]; ok {
		// Lost the redial race; use the winner.
		d.mu.Unlock()
		fresh.Close()
		return cur, true, nil
	}
	d.clients[id] = fresh
	d.mu.Unlock()
	return fresh, false, nil
}

// invalidate removes and closes the device's session if it is still the
// given instance.
func (d *DevMgr) invalidate(id string, client *netconf.Client) {
	d.mu.Lock()
	cur, ok := d.clients[id]
	if ok && cur == client {
		delete(d.clients, id)
	} else {
		ok = false
	}
	d.mu.Unlock()
	if ok {
		client.Close()
	}
}

// Close hangs up every management session at once and returns when all
// their read loops have ended. Hanging up before the agents stop leaves
// each connection's TIME_WAIT on the manager's ephemeral port, not on the
// agent's listening port.
func (d *DevMgr) Close() {
	d.mu.Lock()
	clients := make([]*netconf.Client, 0, len(d.clients))
	for _, c := range d.clients {
		clients = append(clients, c)
	}
	d.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close()
		}()
	}
	wg.Wait()
}
