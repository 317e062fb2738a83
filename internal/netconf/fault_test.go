package netconf

import (
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func dialFast(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := DialWithOptions(addr, DialOptions{CallTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestInterceptorDropRequest proves a dropped request surfaces as a
// transient timeout and that clearing the interceptor heals the session.
func TestInterceptorDropRequest(t *testing.T) {
	srv, addr := startEcho(t)
	c := dialFast(t, addr)
	srv.SetInterceptor(func(op string) FaultDecision {
		return FaultDecision{Fault: FaultDropRequest}
	})
	var out string
	err := c.Call("echo", "hi", &out)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped request returned %v, want ErrTimeout", err)
	}
	if !IsTransient(err) {
		t.Error("timeout should be transient")
	}
	srv.SetInterceptor(nil)
	if err := c.Call("echo", "hi", &out); err != nil || out != "hi" {
		t.Fatalf("session did not heal: %v (out %q)", err, out)
	}
}

// TestInterceptorReset proves a connection reset surfaces as a
// transient lost-session error.
func TestInterceptorReset(t *testing.T) {
	srv, addr := startEcho(t)
	c := dialFast(t, addr)
	srv.SetInterceptor(func(op string) FaultDecision {
		return FaultDecision{Fault: FaultReset}
	})
	var out string
	err := c.Call("echo", "hi", &out)
	if !errors.Is(err, ErrSessionLost) {
		t.Fatalf("reset returned %v, want ErrSessionLost", err)
	}
	if !IsTransient(err) {
		t.Error("lost session should be transient")
	}
	if n := pendingCount(c); n != 0 {
		t.Errorf("%d pending replies left behind a lost session", n)
	}
}

func pendingCount(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// TestCallOnDeadSessionFailsAtOnce is the dead-session contract: once the
// read loop has seen the connection end, nobody is left to answer a
// pending reply, so Call must report ErrSessionLost immediately — not wait
// out the call timeout and report ErrTimeout — and register nothing.
func TestCallOnDeadSessionFailsAtOnce(t *testing.T) {
	srv, addr := startEcho(t)
	c, err := DialWithOptions(addr, DialOptions{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Err(); err != nil {
		t.Fatalf("live session reports Err() = %v", err)
	}
	srv.Stop()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("client never noticed the dropped session")
	}
	if err := c.Err(); !errors.Is(err, ErrSessionLost) {
		t.Errorf("Err() after the peer dropped the session = %v, want ErrSessionLost", err)
	}

	start := time.Now()
	var out string
	err = c.Call("echo", "hi", &out)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrSessionLost) {
		t.Fatalf("Call on a dead session returned %v, want ErrSessionLost", err)
	}
	if elapsed >= 50*time.Millisecond {
		t.Errorf("Call on a dead session took %v, want well under the 2s call timeout", elapsed)
	}
	if n := pendingCount(c); n != 0 {
		t.Errorf("%d pending replies registered on a dead session", n)
	}

	c.Close()
	if err := c.Err(); !errors.Is(err, ErrClosed) {
		t.Errorf("Err() after Close = %v, want ErrClosed", err)
	}
}

// TestInterceptorDropReplyExecutes proves the nasty fault: the RPC's
// side effects apply even though the caller times out — the case that
// forces idempotent re-pushes.
func TestInterceptorDropReplyExecutes(t *testing.T) {
	var handled int64
	srv := NewServer(echoHello{Name: "dev1"}, func(op string, payload json.RawMessage) (interface{}, error) {
		atomic.AddInt64(&handled, 1)
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := dialFast(t, addr)
	srv.SetInterceptor(func(op string) FaultDecision {
		return FaultDecision{Fault: FaultDropReply}
	})
	if err := c.Call("apply", nil, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped reply returned %v, want ErrTimeout", err)
	}
	if n := atomic.LoadInt64(&handled); n != 1 {
		t.Fatalf("handler ran %d times, want 1 (executed despite dropped reply)", n)
	}
	// The idempotent retry applies again and this time is acknowledged.
	srv.SetInterceptor(nil)
	if err := c.Call("apply", nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(&handled); n != 2 {
		t.Fatalf("handler ran %d times after retry, want 2", n)
	}
}

// TestInterceptorInjectedError proves an injected NACK is a device
// answer — an RPCError, not a transient failure.
func TestInterceptorInjectedError(t *testing.T) {
	srv, addr := startEcho(t)
	c := dialFast(t, addr)
	srv.SetInterceptor(func(op string) FaultDecision {
		return FaultDecision{Err: "chaos: injected rejection"}
	})
	var out string
	err := c.Call("echo", "hi", &out)
	var rpcErr *RPCError
	if !errors.As(err, &rpcErr) {
		t.Fatalf("injected error returned %v, want RPCError", err)
	}
	if rpcErr.Op != "echo" || IsTransient(err) {
		t.Errorf("NACK misclassified: %+v transient=%v", rpcErr, IsTransient(err))
	}
}

// TestInterceptorDelay proves delays stall the RPC without failing it.
func TestInterceptorDelay(t *testing.T) {
	srv, addr := startEcho(t)
	c := dialFast(t, addr)
	srv.SetInterceptor(func(op string) FaultDecision {
		return FaultDecision{Delay: 30 * time.Millisecond}
	})
	start := time.Now()
	var out string
	if err := c.Call("echo", "hi", &out); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("call returned in %v, want ≥ 30ms", elapsed)
	}
}

// TestServerStopRestart proves a stopped server can re-listen on its
// old address — the device crash/restart cycle.
func TestServerStopRestart(t *testing.T) {
	srv, addr := startEcho(t)
	c1 := dialFast(t, addr)
	var out string
	if err := c1.Call("echo", "a", &out); err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	if err := c1.Call("echo", "b", &out); err == nil {
		t.Fatal("call on a crashed server succeeded")
	}
	if _, err := srv.Listen(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	c2 := dialFast(t, addr)
	if err := c2.Call("echo", "c", &out); err != nil || out != "c" {
		t.Fatalf("post-restart call: %v (out %q)", err, out)
	}
}

// TestDoubleListenRejected proves a second concurrent Listen is an
// error rather than a silent second endpoint.
func TestDoubleListenRejected(t *testing.T) {
	srv, _ := startEcho(t)
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("second Listen succeeded while first is live")
	}
}

// TestCallTimeoutConfigurable proves the per-session call timeout is
// honored rather than the hardcoded default.
func TestCallTimeoutConfigurable(t *testing.T) {
	srv, addr := startEcho(t)
	srv.SetInterceptor(func(op string) FaultDecision {
		if op == OpHello {
			// Let the session establish; only the RPC should be dropped.
			return FaultDecision{}
		}
		return FaultDecision{Fault: FaultDropRequest}
	})
	c, err := DialWithOptions(addr, DialOptions{CallTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	start := time.Now()
	var out string
	if err := c.Call("echo", "x", &out); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("timed out after %v, want ≈60ms", elapsed)
	}
}
