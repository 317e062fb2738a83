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
)

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

// Register validates the descriptor, dials the device's management
// address, and indexes it. The controller locates devices by the IP
// address in the descriptor (§4.3). Every validation runs before any
// index is touched: a rejected registration leaves no phantom entry
// behind and closes its session, so a corrected re-registration under
// the same ID succeeds.
func (d *DevMgr) Register(desc devmodel.Descriptor) error {
	if err := desc.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	opts := d.dialOpts
	d.mu.Unlock()
	client, err := netconf.DialWithOptions(desc.Address, opts)
	if err != nil {
		return fmt.Errorf("controller: dialing %s at %s: %w", desc.ID, desc.Address, err)
	}
	// The device's hello must agree with the registered identity — a
	// mismatch indicates a miswired management network. A hello that
	// cannot be read is a dial failure, not a verified session: skipping
	// the check would silently disable the miswiring defense.
	var hello devmodel.Descriptor
	if err := client.Hello(&hello); err != nil {
		client.Close()
		return fmt.Errorf("controller: hello from %s at %s: %w", desc.ID, desc.Address, err)
	}
	if hello.ID != "" && hello.ID != desc.ID {
		client.Close()
		return fmt.Errorf("controller: device at %s identifies as %s, registered as %s",
			desc.Address, hello.ID, desc.ID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.devices[desc.ID]; dup {
		client.Close()
		return fmt.Errorf("controller: duplicate device %s", desc.ID)
	}
	// Class-specific validation, still before indexing.
	if desc.Class == devmodel.ClassWSS {
		if desc.Fiber == "" {
			client.Close()
			return fmt.Errorf("controller: WSS %s has no fiber binding", desc.ID)
		}
		if prev, dup := d.wssByFiber[desc.Fiber]; dup {
			client.Close()
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

// ErrDeviceDown marks a Call that gave up because the device's
// management address actively refused the connection: no agent is
// listening there, and a backoff ladder of tens of milliseconds will not
// outlast a reboot. The degraded push skips and reports such a device;
// Repair reconverges it once it is back.
var ErrDeviceDown = errors.New("device down")

// permanent marks a session failure no retry can cure: the caller named a
// device that was never registered, or the address answers as a different
// device (a miswired management network).
type permanent struct{ error }

// Call performs one RPC against the device, classifying each failure
// before spending time on it:
//
//   - A pooled session (one this Call did not dial) that is dead or dies
//     mid-call says nothing about the device, only about the session. It
//     is dropped and redialed at once, one time, without consuming an
//     attempt or a backoff — what net/http does for a stale idle
//     connection.
//   - A refused dial means the agent is not listening: Call returns
//     ErrDeviceDown immediately.
//   - An unregistered ID or an identity mismatch on redial is a caller or
//     wiring bug and returns immediately.
//   - A device NACK (netconf.RPCError) returns immediately — the
//     rejection is intentional and retrying the same document cannot
//     succeed.
//   - Everything ambiguous — a timed-out RPC (dropped request or reply),
//     a dial or hello that times out or cannot be read, a session lost on
//     a connection this Call dialed itself — tears the session down and
//     retries on a fresh dial after a capped, jittered exponential
//     backoff.
//
// This is the hardened path every configuration push and audit read uses.
func (d *DevMgr) Call(id, op string, in, out interface{}) error {
	pol := d.RetryPolicy()
	staleRedialed := false
	for attempt := 1; ; {
		client, pooled, err := d.session(id)
		var perm permanent
		switch {
		case err == nil:
			err = client.Call(op, in, out)
			if err == nil {
				return nil
			}
			if !netconf.IsTransient(err) {
				return err
			}
			// The session misbehaved; drop it so the next attempt
			// redials. (Another goroutine may already have swapped it —
			// invalidate only our instance.)
			d.invalidate(id, client)
			if pooled && !staleRedialed && errors.Is(err, netconf.ErrSessionLost) {
				staleRedialed = true
				continue
			}
		case errors.As(err, &perm):
			return err
		case errors.Is(err, syscall.ECONNREFUSED):
			return fmt.Errorf("controller: %s on %s: %w: %w", op, id, ErrDeviceDown, err)
		}
		if attempt >= pol.maxAttempts() {
			return fmt.Errorf("controller: %s on %s failed after %d attempts: %w", op, id, attempt, err)
		}
		pol.sleep(pol.Backoff(attempt))
		attempt++
	}
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
	fresh, err := netconf.DialWithOptions(desc.Address, opts)
	if err != nil {
		return nil, false, fmt.Errorf("controller: redialing %s at %s: %w", id, desc.Address, err)
	}
	// Re-verify identity, as Register does: a restart must not silently
	// hand the session to a different device on a recycled address. An
	// unreadable hello is a failed redial (transient — Call retries on a
	// fresh dial), never an unverified session.
	var hello devmodel.Descriptor
	if err := fresh.Hello(&hello); err != nil {
		fresh.Close()
		return nil, false, fmt.Errorf("controller: hello on redial of %s at %s: %w", id, desc.Address, err)
	}
	if hello.ID != "" && hello.ID != desc.ID {
		fresh.Close()
		return nil, false, permanent{fmt.Errorf("controller: device at %s identifies as %s, registered as %s",
			desc.Address, hello.ID, desc.ID)}
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

// Close drops every management session.
func (d *DevMgr) Close() {
	d.mu.Lock()
	clients := make([]*netconf.Client, 0, len(d.clients))
	for _, c := range d.clients {
		clients = append(clients, c)
	}
	d.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}
