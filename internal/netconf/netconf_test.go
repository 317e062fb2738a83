package netconf

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

type echoHello struct {
	Name string `json:"name"`
}

func startEcho(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer(echoHello{Name: "dev1"}, func(op string, payload json.RawMessage) (interface{}, error) {
		switch op {
		case "echo":
			var s string
			if err := json.Unmarshal(payload, &s); err != nil {
				return nil, err
			}
			return s, nil
		case "fail":
			return nil, errors.New("boom")
		case "nil":
			return nil, nil
		default:
			return nil, fmt.Errorf("unknown op %q", op)
		}
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestHelloExchange(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var hello echoHello
	if err := c.Hello(&hello); err != nil {
		t.Fatal(err)
	}
	if hello.Name != "dev1" {
		t.Errorf("hello name = %q, want dev1", hello.Name)
	}
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out string
	if err := c.Call("echo", "ping", &out); err != nil {
		t.Fatal(err)
	}
	if out != "ping" {
		t.Errorf("echo = %q", out)
	}
	// nil in / nil out.
	if err := c.Call("nil", nil, nil); err != nil {
		t.Errorf("nil op: %v", err)
	}
}

func TestCallError(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("fail", nil, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if got := err.Error(); got != "netconf: fail: boom" {
		t.Errorf("error = %q", got)
	}
	// The session survives an RPC error.
	var out string
	if err := c.Call("echo", "still-alive", &out); err != nil || out != "still-alive" {
		t.Errorf("session dead after RPC error: %v, %q", err, out)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fmt.Sprintf("msg-%d", i)
			var out string
			if err := c.Call("echo", in, &out); err != nil {
				errs <- err
				return
			}
			if out != in {
				errs <- fmt.Errorf("mismatch: %q != %q", out, in)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNotifications(t *testing.T) {
	srv, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Notify(map[string]string{"event": "los"})
	select {
	case raw := <-c.Notifications():
		var ev map[string]string
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		if ev["event"] != "los" {
			t.Errorf("event = %v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notification not received")
	}
}

func TestMultipleSessionsGetNotifications(t *testing.T) {
	srv, addr := startEcho(t)
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	srv.Notify("broadcast")
	for i, c := range clients {
		select {
		case <-c.Notifications():
		case <-time.After(2 * time.Second):
			t.Fatalf("client %d missed broadcast", i)
		}
	}
}

func TestServerCloseEndsSessions(t *testing.T) {
	srv, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	// Calls after server shutdown fail.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if err := c.Call("echo", "x", nil); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls kept succeeding after server close")
		}
	}
	// Notification channel closes.
	select {
	case _, ok := <-c.Notifications():
		if ok {
			t.Error("unexpected notification")
		}
	case <-time.After(2 * time.Second):
		t.Error("notification channel did not close")
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	_, addr := startEcho(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := c.Call("echo", "x", nil); err == nil {
		t.Error("call on closed client succeeded")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestListenAfterClose(t *testing.T) {
	srv := NewServer("x", func(string, json.RawMessage) (interface{}, error) { return nil, nil })
	srv.Close()
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after Close succeeded")
	}
}

// getConfigDoc is shaped like a WSS's get-config reply: a few passbands.
type getConfigDoc struct {
	Passbands []passband `json:"passbands"`
}

type passband struct {
	Channel string `json:"channel"`
	Start   int    `json:"start"`
	Count   int    `json:"count"`
}

// BenchmarkCall times one get-config round trip on a loopback session:
// the request frame, the agent's reply frame, and the reply decoded into
// the caller's value. Its allocations are the per-message cost of the
// framing, which CI bounds.
func BenchmarkCall(b *testing.B) {
	var doc getConfigDoc
	for i := 0; i < 6; i++ {
		doc.Passbands = append(doc.Passbands, passband{Channel: fmt.Sprintf("cl%03d:%d", 10*i, i), Start: 12 * i, Count: 12})
	}
	srv := NewServer(echoHello{Name: "dev1"}, func(string, json.RawMessage) (interface{}, error) { return doc, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var out getConfigDoc
	if err := c.Call(OpGetConfig, nil, &out); err != nil || len(out.Passbands) != len(doc.Passbands) {
		b.Fatalf("get-config = %+v, %v", out, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = getConfigDoc{}
		if err := c.Call(OpGetConfig, nil, &out); err != nil {
			b.Fatal(err)
		}
	}
}
