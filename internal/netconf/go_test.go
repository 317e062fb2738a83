package netconf

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentCallsAcrossReset is the regression test for the unlocked
// client encoder: eight goroutines share one Client while the agent resets
// the connection mid-call. Writes that land between the reset and the read
// loop noticing it fail, and a failing json.Encoder records a sticky error
// — unsynchronised, two such writes race on it (run under -race). Every
// call must end, nil or ErrSessionLost, and leave nothing pending.
func TestConcurrentCallsAcrossReset(t *testing.T) {
	const callers, rounds = 8, 40
	for round := 0; round < rounds; round++ {
		srv, addr := startEcho(t)
		c := dialFast(t, addr)
		var seen atomic.Int64
		srv.SetInterceptor(func(op string) FaultDecision {
			if seen.Add(1) == callers { // by now the callers are all mid-stream
				return FaultDecision{Fault: FaultReset}
			}
			return FaultDecision{}
		})
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					var out string
					err := c.Call("echo", "hi", &out)
					if err == nil {
						continue
					}
					if !errors.Is(err, ErrSessionLost) {
						t.Errorf("call across a reset returned %v, want nil or ErrSessionLost", err)
					}
					return
				}
			}()
		}
		wg.Wait()
		if n := pendingCount(c); n != 0 {
			t.Fatalf("%d calls left pending behind a reset session", n)
		}
		c.Close()
		srv.Close()
	}
}

// TestGoDeliversInCompletionOrder pins the send/await split: calls sent
// back to back on two clients arrive on one shared channel in the order
// they complete, not the order they were sent, and a timeout — whose clock
// started at the send — is delivered like any other completion.
func TestGoDeliversInCompletionOrder(t *testing.T) {
	slow, slowAddr := startEcho(t)
	_, fastAddr := startEcho(t)
	slowClient, fastClient := dialFast(t, slowAddr), dialFast(t, fastAddr)
	slow.SetInterceptor(func(string) FaultDecision { return FaultDecision{Fault: FaultDropRequest} })

	done := make(chan *Call, 2)
	start := time.Now()
	var slowOut, fastOut string
	dropped := slowClient.Go("echo", "never", &slowOut, done)
	answered := fastClient.Go("echo", "now", &fastOut, done)

	if first := <-done; first != answered || first.Err != nil || fastOut != "now" {
		t.Fatalf("first completion = %+v (out %q), want the answered call", first, fastOut)
	}
	quick := time.Since(start)
	second := <-done
	if second != dropped || !errors.Is(second.Err, ErrTimeout) {
		t.Fatalf("second completion = %+v, want the dropped call timing out", second)
	}
	if total := time.Since(start); quick > 100*time.Millisecond || total < 150*time.Millisecond {
		t.Errorf("answered call took %v, dropped one %v; want well under and at least the 150ms call timeout", quick, total)
	}
	if n := pendingCount(slowClient); n != 0 {
		t.Errorf("%d calls pending after the timeout", n)
	}
	select {
	case extra := <-done:
		t.Errorf("call delivered twice: %+v", extra)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestGoOnDeadSessionCompletesAtOnce: a call that cannot be sent is still
// delivered on the channel, already failed, so a collector counting
// completions never waits for it.
func TestGoOnDeadSessionCompletesAtOnce(t *testing.T) {
	srv, addr := startEcho(t)
	c := dialFast(t, addr)
	srv.Stop()
	<-c.Done()
	done := make(chan *Call, 1)
	call := c.Go("echo", "hi", nil, done)
	select {
	case got := <-done:
		if got != call || !errors.Is(got.Err, ErrSessionLost) {
			t.Errorf("completion = %+v, want the call failed with ErrSessionLost", got)
		}
	default:
		t.Fatal("Go on a dead session returned without delivering the call")
	}
}
