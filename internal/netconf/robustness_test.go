package netconf

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestServerSurvivesGarbageBytes: a client writing bytes that are not a
// frame, or a header announcing more than the frame cap, loses its own
// session and nothing else.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	_, addr := startEcho(t)
	oversize := appendFrame(nil, kindRPC, 1, "echo", "", nil)
	binary.BigEndian.PutUint32(oversize[8:], maxFrame+1)
	for _, garbage := range []string{"this is not json\n{{{\n", string(oversize)} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(garbage)); err != nil {
			t.Fatal(err)
		}
		// The server greets, reads the garbage and drops the session.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		fr := newFrameReader(conn)
		if hello, err := fr.next(); err != nil || hello.kind != kindHello {
			t.Fatalf("hello = %+v, %v", hello, err)
		}
		var netErr net.Error
		if _, err := fr.next(); err == nil || errors.As(err, &netErr) && netErr.Timeout() {
			t.Errorf("session still open after %q: %v", garbage, err)
		}
		conn.Close()
		// A fresh client works.
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		var out string
		if err := c.Call("echo", "alive", &out); err != nil || out != "alive" {
			t.Errorf("server unusable after garbage session: %v %q", err, out)
		}
		c.Close()
	}
}

// TestServerIgnoresUnknownKinds: frames with unexpected kinds are skipped.
func TestServerIgnoresUnknownKinds(t *testing.T) {
	_, addr := startEcho(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFrameReader(conn)
	if hello, err := fr.next(); err != nil || hello.kind != kindHello {
		t.Fatalf("hello = %+v, %v", hello, err)
	}
	// Unknown kind, then a real RPC on the same session.
	payload, _ := json.Marshal("ping")
	frames := appendFrame(nil, 'x', 1, "", "", nil)
	frames = appendFrame(frames, kindRPC, 2, "echo", "", payload)
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	reply, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if reply.kind != kindReply || reply.id != 2 || string(reply.payload) != string(payload) {
		t.Errorf("reply = %+v", reply)
	}
}

// TestLargePayloadRoundTrip: configuration documents can be sizeable
// (hundreds of passbands); the framing must not truncate them.
func TestLargePayloadRoundTrip(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := strings.Repeat("x", 1<<20) // 1 MiB
	var out string
	if err := c.Call("echo", big, &out); err != nil {
		t.Fatal(err)
	}
	if out != big {
		t.Errorf("payload corrupted: %d bytes back, want %d", len(out), len(big))
	}
}

// TestSlowNotificationConsumerDoesNotBlockRPC: a client that never reads
// notifications must still complete calls (drops, not deadlock).
func TestSlowNotificationConsumerDoesNotBlockRPC(t *testing.T) {
	srv, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 1000; i++ { // far beyond the 256 buffer
		srv.Notify(fmt.Sprintf("event-%d", i))
	}
	done := make(chan error, 1)
	go func() {
		var out string
		done <- c.Call("echo", "still-works", &out)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("call after notification flood: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("RPC blocked behind unread notifications")
	}
}

// TestHelloTimeout: a server that accepts but never speaks must not hang
// Dial forever.
func TestHelloTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		time.Sleep(10 * time.Second) // mute server
	}()
	start := time.Now()
	if _, err := Dial(l.Addr().String()); err == nil {
		t.Fatal("Dial succeeded against a mute server")
	}
	if time.Since(start) > DialTimeout+2*time.Second {
		t.Errorf("Dial took %v, deadline not applied", time.Since(start))
	}
}

// TestConcurrentNotifyAndCalls exercises write interleaving on the
// server side.
func TestConcurrentNotifyAndCalls(t *testing.T) {
	srv, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				srv.Notify("tick")
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() {
		for range c.Notifications() {
		}
	}()
	for i := 0; i < 200; i++ {
		in := fmt.Sprintf("m%d", i)
		var out string
		if err := c.Call("echo", in, &out); err != nil || out != in {
			t.Fatalf("call %d: %v %q", i, err, out)
		}
	}
	close(stop)
}
