package controller

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/telemetry"
	"flexwan/internal/topology"
)

// TestBackoffDoublesAndCaps verifies the exponential schedule without
// jitter: doubling from the base, clamped at the cap.
func TestBackoffDoublesAndCaps(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 800 * time.Millisecond}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 800 * time.Millisecond, 800 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestBackoffJitterBounds pins the jitter envelope with a deterministic
// Rand: the delay must span exactly [d·(1−J), d·(1+J)).
func TestBackoffJitterBounds(t *testing.T) {
	base := 100 * time.Millisecond
	low := RetryPolicy{BaseDelay: base, JitterFrac: 0.25, Rand: func() float64 { return 0 }}
	if got := low.Backoff(1); got != 75*time.Millisecond {
		t.Errorf("lower jitter bound = %v, want 75ms", got)
	}
	high := RetryPolicy{BaseDelay: base, JitterFrac: 0.25, Rand: func() float64 { return 0.999999 }}
	if got := high.Backoff(1); got < 124*time.Millisecond || got >= 125*time.Millisecond {
		t.Errorf("upper jitter bound = %v, want just under 125ms", got)
	}
	// Default source stays within the envelope too.
	mid := RetryPolicy{BaseDelay: base, JitterFrac: 0.25}
	for i := 0; i < 100; i++ {
		if d := mid.Backoff(1); d < 75*time.Millisecond || d >= 125*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [75ms, 125ms)", d)
		}
	}
}

// TestBackoffDefaults verifies the zero-value policy falls back to the
// documented 50ms base and 2s cap.
func TestBackoffDefaults(t *testing.T) {
	var p RetryPolicy
	if got := p.Backoff(1); got != 50*time.Millisecond {
		t.Errorf("default base = %v, want 50ms", got)
	}
	if got := p.Backoff(20); got != 2*time.Second {
		t.Errorf("default cap = %v, want 2s", got)
	}
	if p.maxAttempts() != 1 {
		t.Errorf("zero MaxAttempts means a single attempt, got %d", p.maxAttempts())
	}
}

// TestCallRetriesTransientFaults drops the first edit-config request
// with the transport's fault hook and proves DevMgr.Call rides it out:
// the retry succeeds, and the fake clock sees exactly the scheduled
// backoffs — no real sleeping.
func TestCallRetriesTransientFaults(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	d := h.ctrl.DevMgr()
	d.SetDialOptions(netconf.DialOptions{CallTimeout: 100 * time.Millisecond})

	var slept []time.Duration
	d.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
		Sleep: func(dur time.Duration) { slept = append(slept, dur) },
	})
	// The registered session predates SetDialOptions; force a redial so
	// the shortened call timeout applies.
	if client, ok := d.Client("wss-f1"); ok {
		d.invalidate("wss-f1", client)
	}

	drops := 0
	h.wss["f1"].Server().SetInterceptor(func(op string) netconf.FaultDecision {
		if op == netconf.OpGetConfig && drops == 0 {
			drops++
			return netconf.FaultDecision{Fault: netconf.FaultDropRequest}
		}
		return netconf.FaultDecision{}
	})
	var cfg interface{}
	if err := d.Call("wss-f1", netconf.OpGetConfig, nil, &cfg); err != nil {
		t.Fatalf("Call did not recover from a dropped request: %v", err)
	}
	if len(slept) != 1 || slept[0] != 10*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want [10ms]", slept)
	}
}

// TestCallDoesNotRetryNACK proves a device rejection surfaces
// immediately: retrying an intentional NACK cannot succeed.
func TestCallDoesNotRetryNACK(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	d := h.ctrl.DevMgr()
	slept := 0
	d.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond,
		Sleep: func(time.Duration) { slept++ },
	})
	// An out-of-catalog document is NACKed by the device agent.
	bad := devmodel.TransponderConfig{
		Enabled: true, DataRateGbps: 123, SpacingGHz: 12.5,
		IntervalCount: 1, PathFibers: []string{"f1"}, Channel: "e1:1",
	}
	err := d.Call("tx-A-0", netconf.OpEditConfig, bad, nil)
	var rpcErr *netconf.RPCError
	if !errors.As(err, &rpcErr) {
		t.Fatalf("want RPCError, got %v", err)
	}
	if slept != 0 {
		t.Errorf("NACK was retried %d times", slept)
	}
}

// TestCallExhaustsAttempts verifies the failure shape when the device
// never answers: capped attempts, wrapped transient error.
func TestCallExhaustsAttempts(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	d := h.ctrl.DevMgr()
	d.SetDialOptions(netconf.DialOptions{CallTimeout: 50 * time.Millisecond})
	slept := 0
	d.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond,
		Sleep: func(time.Duration) { slept++ },
	})
	h.wss["f1"].Server().SetInterceptor(func(op string) netconf.FaultDecision {
		if op == netconf.OpGetConfig {
			return netconf.FaultDecision{Fault: netconf.FaultDropRequest}
		}
		return netconf.FaultDecision{}
	})
	if client, ok := d.Client("wss-f1"); ok {
		d.invalidate("wss-f1", client)
	}
	var cfg interface{}
	err := d.Call("wss-f1", netconf.OpGetConfig, nil, &cfg)
	if err == nil {
		t.Fatal("Call succeeded against a black-holed device")
	}
	if !netconf.IsTransient(err) {
		t.Errorf("exhausted error should stay transient, got %v", err)
	}
	if slept != 2 {
		t.Errorf("slept %d times, want 2 (between 3 attempts)", slept)
	}
}

// TestWatchContextCancel proves the drill/operator loop shuts down on
// context cancellation without needing the events channel to close.
func TestWatchContextCancel(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	events := make(chan telemetry.Event) // never closed, never written
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		h.ctrl.WatchContext(ctx, events, nil)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WatchContext leaked after cancel")
	}
}

// recordSleeps installs the drill-shaped retry policy (three attempts,
// jittered from a seeded source) with a fake clock, and returns the
// backoffs Call asked for.
func recordSleeps(d *DevMgr) *[]time.Duration {
	slept := new([]time.Duration)
	rng := rand.New(rand.NewSource(1))
	d.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
		JitterFrac: 0.25, Rand: rng.Float64,
		Sleep: func(dur time.Duration) { *slept = append(*slept, dur) },
	})
	return slept
}

// awaitSessionDead waits until the pooled session's read loop has seen
// the connection end.
func awaitSessionDead(t *testing.T, d *DevMgr, id string) {
	t.Helper()
	client, ok := d.Client(id)
	if !ok {
		t.Fatalf("no pooled session for %s", id)
	}
	select {
	case <-client.Done():
	case <-time.After(2 * time.Second):
		t.Fatalf("pooled session of %s never noticed the crash", id)
	}
}

func sessionUp(t *testing.T, d *DevMgr, id string) bool {
	t.Helper()
	for _, h := range d.Health() {
		if h.ID == id {
			return h.SessionUp
		}
	}
	t.Fatalf("%s missing from Health()", id)
	return false
}

// TestCallCrashedDeviceFailsFast is the tentpole's contract on both
// branches a crash can take: the pooled session is already dead when Call
// starts, or it dies under the call. Either way the one free redial is
// refused, Call returns ErrDeviceDown without a single backoff, and after
// a restart the next Call succeeds on a fresh, identity-verified session.
func TestCallCrashedDeviceFailsFast(t *testing.T) {
	const id = "tx-A-0"
	// Each crash returns a function that waits for the crash to finish.
	crashMidCall := func(t *testing.T, h *harness) func() {
		crashed := make(chan struct{})
		var once sync.Once
		h.transponders[id].Server().SetInterceptor(func(op string) netconf.FaultDecision {
			if op != netconf.OpGetConfig {
				return netconf.FaultDecision{}
			}
			// Stop waits for this serving goroutine, so it runs beside
			// it; it closes the listener before the sessions, so the
			// redial that follows the lost session is refused.
			once.Do(func() {
				go func() {
					h.transponders[id].Crash()
					close(crashed)
				}()
			})
			return netconf.FaultDecision{Fault: netconf.FaultDropRequest}
		})
		return func() {
			once.Do(func() { close(crashed) }) // the RPC never arrived
			<-crashed
		}
	}
	for _, tc := range []struct {
		name  string
		crash func(*testing.T, *harness) func()
	}{
		{"dead before use", func(t *testing.T, h *harness) func() {
			h.transponders[id].Crash()
			awaitSessionDead(t, h.ctrl.DevMgr(), id)
			return func() {}
		}},
		{"lost mid-call", crashMidCall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
			d := h.ctrl.DevMgr()
			slept := recordSleeps(d)
			settle := tc.crash(t, h)

			var cfg interface{}
			err := d.Call(id, netconf.OpGetConfig, nil, &cfg)
			settle()
			if !errors.Is(err, ErrDeviceDown) {
				t.Fatalf("Call on a crashed device returned %v, want ErrDeviceDown", err)
			}
			if *slept != nil {
				t.Errorf("crashed device cost backoffs %v, want none", *slept)
			}
			if sessionUp(t, d, id) {
				t.Error("Health reports a session to a crashed device")
			}

			h.transponders[id].Server().SetInterceptor(nil)
			if err := h.transponders[id].Restart(); err != nil {
				t.Fatal(err)
			}
			if err := d.Call(id, netconf.OpGetConfig, nil, &cfg); err != nil {
				t.Fatalf("Call after restart: %v", err)
			}
			if *slept != nil {
				t.Errorf("restarted device cost backoffs %v, want none", *slept)
			}
			client, ok := d.Client(id)
			if !ok || client.Err() != nil {
				t.Fatal("no live pooled session after restart")
			}
			var hello devmodel.Descriptor
			if err := client.Hello(&hello); err != nil || hello.ID != id {
				t.Errorf("fresh session greets as %q (%v), want %s", hello.ID, err, id)
			}
		})
	}
}

// TestCallStalePooledSessionRedialsOnce pins the scope of the free
// redial. A reset on a pooled session is evidence about the session: one
// immediate redial, no backoff. A reset on the session Call just dialed
// is evidence about the device: the ladder, unchanged.
func TestCallStalePooledSessionRedialsOnce(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	d := h.ctrl.DevMgr()
	slept := recordSleeps(d)

	var seen, resets atomic.Int64
	resets.Store(1)
	h.wss["f1"].Server().SetInterceptor(func(op string) netconf.FaultDecision {
		if op == netconf.OpGetConfig && seen.Add(1) <= resets.Load() {
			return netconf.FaultDecision{Fault: netconf.FaultReset}
		}
		return netconf.FaultDecision{}
	})
	var cfg interface{}
	if err := d.Call("wss-f1", netconf.OpGetConfig, nil, &cfg); err != nil {
		t.Fatalf("Call did not recover from a reset pooled session: %v", err)
	}
	if *slept != nil || seen.Load() != 2 {
		t.Errorf("reset pooled session: backoffs %v over %d RPCs, want none over 2", *slept, seen.Load())
	}

	// Every get-config resets: pooled session (free redial), then three
	// sessions of Call's own, two backoffs between them.
	seen.Store(0)
	resets.Store(100)
	err := d.Call("wss-f1", netconf.OpGetConfig, nil, &cfg)
	if err == nil || !netconf.IsTransient(err) || errors.Is(err, ErrDeviceDown) {
		t.Fatalf("Call against a resetting device returned %v, want a transient ladder failure", err)
	}
	if len(*slept) != 2 || seen.Load() != 4 {
		t.Errorf("resetting device: backoffs %v over %d RPCs, want 2 over 4", *slept, seen.Load())
	}
}

// TestCallMisconfigurationIsNotRetried: an ID that was never registered
// is a caller bug and an address that answers as another device is a
// miswired management network. Neither is transient; neither may run the
// ladder.
func TestCallMisconfigurationIsNotRetried(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	d := h.ctrl.DevMgr()
	slept := recordSleeps(d)

	err := d.Call("ghost", netconf.OpGetConfig, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf("Call on an unregistered ID returned %v", err)
	}
	if *slept != nil {
		t.Errorf("unregistered ID cost backoffs %v, want none", *slept)
	}

	// Replace tx-A-0's agent with one that greets under another name.
	const id = "tx-A-0"
	desc, _ := d.Descriptor(id)
	h.transponders[id].Crash()
	awaitSessionDead(t, d, id)
	impostor := netconf.NewServer(devmodel.Descriptor{ID: "impostor"},
		func(string, json.RawMessage) (interface{}, error) { return nil, nil })
	if _, err := impostor.Listen(desc.Address); err != nil {
		t.Fatal(err)
	}
	defer impostor.Close()
	err = d.Call(id, netconf.OpGetConfig, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "identifies as impostor") {
		t.Errorf("Call on a miswired address returned %v", err)
	}
	if *slept != nil {
		t.Errorf("identity mismatch cost backoffs %v, want none", *slept)
	}
	if sessionUp(t, d, id) {
		t.Error("an unverified session was pooled")
	}
}

// TestHealthReportsSessionLiveness: SessionUp is the session's actual
// liveness, not the presence of a pool entry — a crashed device reads
// false before any Call trips over the dead session.
func TestHealthReportsSessionLiveness(t *testing.T) {
	const id = "tx-B-0"
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	d := h.ctrl.DevMgr()
	if !sessionUp(t, d, id) {
		t.Fatal("registered device reports no session")
	}
	h.transponders[id].Crash()
	awaitSessionDead(t, d, id)
	if sessionUp(t, d, id) {
		t.Error("crashed device still reports session_up with no Call in between")
	}
	if err := h.transponders[id].Restart(); err != nil {
		t.Fatal(err)
	}
	var cfg interface{}
	if err := d.Call(id, netconf.OpGetConfig, nil, &cfg); err != nil {
		t.Fatal(err)
	}
	if !sessionUp(t, d, id) {
		t.Error("restarted device reports no session after a successful Call")
	}
}

// scriptedAgent puts a device's agent under a script: every RPC it is sent
// (redial hellos included) is recorded in order, and decide, when set,
// rules on the i-th of them.
type scriptedAgent struct {
	mu   sync.Mutex
	seen []string
}

func script(srv *netconf.Server, decide func(i int, op string) netconf.FaultDecision) *scriptedAgent {
	a := &scriptedAgent{}
	srv.SetInterceptor(func(op string) netconf.FaultDecision {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.seen = append(a.seen, op)
		if decide == nil {
			return netconf.FaultDecision{}
		}
		return decide(len(a.seen), op)
	})
	return a
}

func (a *scriptedAgent) ops() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return strings.Join(a.seen, " ")
}

// TestCallAllClimbsTheSameLadder walks DESIGN.md's failure-classification
// table. Each row breaks tx-A-0 one way and reads its config twice, on
// fresh deployments: alone through Call, and through CallAll between two
// healthy devices whose first attempts are in flight beside it. Both must
// show the agent the RPC sequence pinned here — what Call's retry loop
// produced before it became the engine's ladder — sleep the same backoffs
// and end in the same class of error, and the healthy neighbours must see
// one RPC each whatever happens next to them.
func TestCallAllClimbsTheSameLadder(t *testing.T) {
	const id = "tx-A-0"
	const get, hello = netconf.OpGetConfig, netconf.OpHello
	drop := netconf.FaultDecision{Fault: netconf.FaultDropRequest}
	reset := netconf.FaultDecision{Fault: netconf.FaultReset}
	first := func(d netconf.FaultDecision) func(int, string) netconf.FaultDecision {
		return func(i int, _ string) netconf.FaultDecision {
			if i == 1 {
				return d
			}
			return netconf.FaultDecision{}
		}
	}
	everyRPC := func(d netconf.FaultDecision) func(int, string) netconf.FaultDecision {
		return func(_ int, op string) netconf.FaultDecision {
			if op == hello {
				return netconf.FaultDecision{}
			}
			return d
		}
	}
	crash := func(t *testing.T, h *harness) {
		h.transponders[id].Crash()
		awaitSessionDead(t, h.ctrl.DevMgr(), id)
	}
	isNil := func(err error) bool { return err == nil }
	exhausted := func(err error) bool {
		return err != nil && netconf.IsTransient(err) && !errors.Is(err, ErrDeviceDown) &&
			strings.Contains(err.Error(), "failed after 3 attempts")
	}
	says := func(text string) func(error) bool {
		return func(err error) bool { return err != nil && strings.Contains(err.Error(), text) }
	}
	rows := []struct {
		name string
		// arrange breaks the device before the call; it may return another
		// server to put under the script in the agent's place.
		arrange func(t *testing.T, h *harness) *netconf.Server
		decide  func(i int, op string) netconf.FaultDecision
		target  string // the device called; tx-A-0 unless set
		ops     string
		sleeps  int
		ok      func(error) bool
	}{
		{name: "healthy", ops: get, ok: isNil},
		{name: "pooled session lost mid-call", decide: first(reset),
			ops: get + " " + hello + " " + get, ok: isNil},
		{name: "pooled session dead before use", arrange: func(t *testing.T, h *harness) *netconf.Server {
			crash(t, h)
			if err := h.transponders[id].Restart(); err != nil {
				t.Fatal(err)
			}
			return nil
		}, ops: hello + " " + get, ok: isNil},
		{name: "dial refused", arrange: func(t *testing.T, h *harness) *netconf.Server {
			crash(t, h)
			return nil
		}, ok: func(err error) bool { return errors.Is(err, ErrDeviceDown) }},
		{name: "request dropped once", decide: first(drop),
			ops: get + " " + hello + " " + get, sleeps: 1, ok: isNil},
		{name: "never answers", decide: everyRPC(drop),
			ops: get + " " + hello + " " + get + " " + hello + " " + get, sleeps: 2, ok: exhausted},
		{name: "every session reset", decide: everyRPC(reset),
			ops: get + " " + hello + " " + get + " " + hello + " " + get + " " + hello + " " + get, sleeps: 2, ok: exhausted},
		{name: "no pooled session, redial hello dropped once", arrange: func(t *testing.T, h *harness) *netconf.Server {
			client, _ := h.ctrl.DevMgr().Client(id)
			h.ctrl.DevMgr().invalidate(id, client)
			return nil
		}, decide: first(drop), ops: hello + " " + hello + " " + get, sleeps: 1, ok: isNil},
		{name: "device NACK", decide: everyRPC(netconf.FaultDecision{Err: "vendor: no"}), ops: get,
			ok: func(err error) bool { var nack *netconf.RPCError; return errors.As(err, &nack) }},
		{name: "ID never registered", target: "ghost", ok: says("not registered")},
		{name: "redial greets under another ID", arrange: func(t *testing.T, h *harness) *netconf.Server {
			desc, _ := h.ctrl.DevMgr().Descriptor(id)
			crash(t, h)
			impostor := netconf.NewServer(devmodel.Descriptor{ID: "impostor"},
				func(string, json.RawMessage) (interface{}, error) { return nil, nil })
			if _, err := impostor.Listen(desc.Address); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(impostor.Close)
			return impostor
		}, ops: hello, ok: says("identifies as impostor")},
	}
	for _, row := range rows {
		type outcome struct {
			ops   string
			slept []time.Duration
			err   error
		}
		run := func(t *testing.T, beside bool) outcome {
			h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
			d := h.ctrl.DevMgr()
			d.SetDialOptions(netconf.DialOptions{DialTimeout: 150 * time.Millisecond, CallTimeout: 100 * time.Millisecond})
			if client, ok := d.Client(id); ok {
				client.SetCallTimeout(100 * time.Millisecond) // dialed before SetDialOptions
			}
			slept := recordSleeps(d)
			srv := h.transponders[id].Server()
			if row.arrange != nil {
				if other := row.arrange(t, h); other != nil {
					srv = other
				}
			}
			agent := script(srv, row.decide)
			target := row.target
			if target == "" {
				target = id
			}
			var cfg, left, right interface{}
			var err error
			if !beside {
				err = d.Call(target, get, nil, &cfg)
			} else {
				f1, f2 := script(h.wss["f1"].Server(), nil), script(h.wss["f2"].Server(), nil)
				errs := d.CallAll([]Request{
					{"wss-f1", get, nil, &left}, {target, get, nil, &cfg}, {"wss-f2", get, nil, &right},
				}, 0)
				if errs[0] != nil || errs[2] != nil || f1.ops() != get || f2.ops() != get {
					t.Errorf("healthy neighbours: errors %v / %v, RPCs %q / %q; want one clean get-config each",
						errs[0], errs[2], f1.ops(), f2.ops())
				}
				err = errs[1]
			}
			return outcome{agent.ops(), *slept, err}
		}
		t.Run(row.name, func(t *testing.T) {
			alone, beside := run(t, false), run(t, true)
			for _, got := range []outcome{alone, beside} {
				if got.ops != row.ops || len(got.slept) != row.sleeps || !row.ok(got.err) {
					t.Errorf("agent saw %q over %d backoffs, error %v;\nwant %q over %d",
						got.ops, len(got.slept), got.err, row.ops, row.sleeps)
				}
			}
			if fmt.Sprint(alone.slept) != fmt.Sprint(beside.slept) {
				t.Errorf("backoffs alone %v, beside others %v", alone.slept, beside.slept)
			}
		})
	}
}

// TestCallAllTakesCompletionsAsTheyCome: two agents that never reply and
// one dead pooled session in one call. The dead device is classified (its
// session dropped, its refused redial turned into ErrDeviceDown) before
// either of the others has even timed out once, and the call ends when the
// two timeout ladders — which run side by side — end, not at their sum.
func TestCallAllTakesCompletionsAsTheyCome(t *testing.T) {
	const dead, timeout = "tx-A-0", 100 * time.Millisecond
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	d := h.ctrl.DevMgr()
	for _, id := range []string{"wss-f1", "wss-f2"} {
		client, _ := d.Client(id)
		client.SetCallTimeout(timeout)
	}
	d.SetDialOptions(netconf.DialOptions{CallTimeout: timeout})
	for _, f := range []string{"f1", "f2"} {
		script(h.wss[f].Server(), func(_ int, op string) netconf.FaultDecision {
			if op == netconf.OpHello {
				return netconf.FaultDecision{}
			}
			return netconf.FaultDecision{Fault: netconf.FaultDropRequest}
		})
	}
	h.transponders[dead].Crash()
	awaitSessionDead(t, d, dead)

	var firstBackoff sync.Once
	var deadKnownByThen bool
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {
		firstBackoff.Do(func() { _, pooled := d.Client(dead); deadKnownByThen = !pooled })
	}})
	start := time.Now()
	errs := d.CallAll([]Request{
		{"wss-f1", netconf.OpGetConfig, nil, nil}, {dead, netconf.OpGetConfig, nil, nil}, {"wss-f2", netconf.OpGetConfig, nil, nil},
	}, 0)
	elapsed := time.Since(start)
	if !errors.Is(errs[1], ErrDeviceDown) {
		t.Errorf("dead device: %v, want ErrDeviceDown", errs[1])
	}
	for _, i := range []int{0, 2} {
		if !errors.Is(errs[i], netconf.ErrTimeout) {
			t.Errorf("silent device %d: %v, want a timeout ladder", i, errs[i])
		}
	}
	if !deadKnownByThen {
		t.Error("the dead session was still pooled when the first call timeout fired")
	}
	if elapsed < 3*timeout || elapsed > 5*timeout {
		t.Errorf("call took %v; want one three-attempt timeout ladder (%v), not two (%v)", elapsed, 3*timeout, 6*timeout)
	}
}

// TestPushWindowBoundsRPCsInFlight: SetPushWorkers(1) is the serial
// ablation — through Apply, a restoration and an audit no device is sent an
// RPC while another's is unanswered — n bounds the window at n, and the
// default keeps the fleet in flight together.
func TestPushWindowBoundsRPCsInFlight(t *testing.T) {
	for _, workers := range []int{1, 2, 0} {
		h := newHarness(t, 2,
			topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100},
			topology.IPLink{ID: "e2", A: "A", B: "C", DemandGbps: 100},
			topology.IPLink{ID: "e3", A: "C", B: "B", DemandGbps: 100},
		)
		h.ctrl.SetPushWorkers(workers)
		var inFlight, peak atomic.Int64
		hold := func(op string) netconf.FaultDecision {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(2 * time.Millisecond) // the reply waits; an overlapping RPC would show
			inFlight.Add(-1)
			return netconf.FaultDecision{}
		}
		for _, tr := range h.transponders {
			tr.Server().SetInterceptor(hold)
		}
		for _, w := range h.wss {
			w.Server().SetInterceptor(hold)
		}
		res, err := h.ctrl.PlanNetwork()
		if err != nil {
			t.Fatal(err)
		}
		if err := h.ctrl.Apply(res); err != nil {
			t.Fatal(err)
		}
		if _, err := h.ctrl.HandleFiberCutReport("f1"); err != nil {
			t.Fatal(err)
		}
		if audit, err := h.ctrl.Audit(); err != nil || !audit.Clean() {
			t.Fatalf("push-workers %d: audit %+v, %v", workers, audit, err)
		}
		switch got := peak.Load(); {
		case workers > 0 && got > int64(workers):
			t.Errorf("push-workers %d: %d RPCs in flight at once", workers, got)
		case workers == 0 && got < 3:
			t.Errorf("default window: at most %d RPCs in flight; the fleet is not pushed together", got)
		}
	}
}
