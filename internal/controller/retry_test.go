package controller

import (
	"context"
	"encoding/json"
	"errors"
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
