package netconf

import (
	"testing"
	"time"
)

// TestHelloDropFailsDial proves a dropped hello greeting fails the dial
// instead of yielding a half-open session — the fault the DevMgr must
// classify as a transient dial failure, never a verified session.
func TestHelloDropFailsDial(t *testing.T) {
	srv, addr := startEcho(t)
	srv.SetInterceptor(func(op string) FaultDecision {
		if op == OpHello {
			return FaultDecision{Fault: FaultDropRequest}
		}
		return FaultDecision{}
	})
	if c, err := DialWithOptions(addr, DialOptions{DialTimeout: 100 * time.Millisecond}); err == nil {
		c.Close()
		t.Fatal("dial succeeded despite dropped hello")
	}
	// Clearing the fault heals the dial path.
	srv.SetInterceptor(nil)
	c := dialFast(t, addr)
	var out string
	if err := c.Call("echo", "hi", &out); err != nil || out != "hi" {
		t.Fatalf("post-heal call: %v (out %q)", err, out)
	}
}

// TestHelloResetFailsDial proves a connection reset during the greeting
// fails the dial cleanly.
func TestHelloResetFailsDial(t *testing.T) {
	srv, addr := startEcho(t)
	srv.SetInterceptor(func(op string) FaultDecision {
		if op == OpHello {
			return FaultDecision{Fault: FaultReset}
		}
		return FaultDecision{}
	})
	if c, err := DialWithOptions(addr, DialOptions{DialTimeout: 100 * time.Millisecond}); err == nil {
		c.Close()
		t.Fatal("dial succeeded despite reset hello")
	}
}
