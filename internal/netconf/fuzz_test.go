package netconf

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// FuzzFrame holds the frame reader to two promises. Arbitrary bytes never
// make it panic, and never make it allocate past maxFrame or much past the
// bytes that arrived, whatever a header announces. And any frame the
// writers produce reads back equal.
func FuzzFrame(f *testing.F) {
	valid := appendFrame(nil, kindRPC, 7, OpGetConfig, "", []byte(`{"passbands":[]}`))
	oversize := appendFrame(nil, kindReply, 1, "", "", nil)
	binary.BigEndian.PutUint32(oversize[8:], maxFrame+1)
	short := appendFrame(nil, kindReply, 2, "", "", nil)
	binary.BigEndian.PutUint32(short[8:], 1<<20) // announces 1 MiB, sends 3 bytes
	short = append(short, "abc"...)
	f.Add([]byte("this is not json\n{{{\n"), byte(kindRPC), uint64(1), "echo", "", []byte(`"ping"`))
	f.Add(valid[:10], byte(kindReply), uint64(7), "", "", []byte(`{"passbands":[]}`))
	f.Add(oversize, byte(kindNotification), uint64(0), "", "", []byte(`{"kind":"los"}`))
	f.Add(short, byte(kindReply), uint64(2), OpEditConfig, "device: refused", []byte(nil))
	f.Add(valid, byte('x'), uint64(1<<63), "", "", bytes.Repeat([]byte("y"), 5000))

	f.Fuzz(func(t *testing.T, data []byte, kind byte, id uint64, op, errMsg string, payload []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for {
			got, err := fr.next()
			if c := cap(fr.buf); c > maxFrame || c > 3*len(data)+8192 {
				t.Fatalf("reader holds %d bytes after %d arrived", c, len(data))
			}
			if err != nil {
				break
			}
			if n := len(got.op) + len(got.errMsg) + len(got.payload); n > maxFrame || n > len(data) {
				t.Fatalf("frame of %d bytes from %d", n, len(data))
			}
		}

		if len(op) > 0xFFFF {
			op = op[:0xFFFF]
		}
		want := frame{kind: kind, id: id, op: []byte(op), errMsg: []byte(errMsg), payload: payload}
		// The JSON writer frames a value it marshals in place.
		var w frameWriter
		w.init(nil)
		if err := w.frame(kind, id, op, errMsg, string(payload)); err != nil {
			t.Fatal(err)
		}
		encoded, err := json.Marshal(string(payload))
		if err != nil {
			t.Fatal(err)
		}
		wantJSON := want
		wantJSON.payload = encoded
		two := appendFrame(nil, kind, id, op, errMsg, payload)
		two = append(two, w.buf...)
		fr = newFrameReader(bytes.NewReader(two))
		for i, want := range []frame{want, wantJSON} {
			got, err := fr.next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if got.kind != want.kind || got.id != want.id || !bytes.Equal(got.op, want.op) ||
				!bytes.Equal(got.errMsg, want.errMsg) || !bytes.Equal(got.payload, want.payload) {
				t.Fatalf("frame %d read back %+v, wrote %+v", i, got, want)
			}
		}
		if _, err := fr.next(); err == nil {
			t.Fatal("a third frame read from two")
		}
	})
}

// scriptedPeer is the device end of FuzzClientCalls: it answers each RPC
// as its op says — "reply" echoes the payload, "nack" refuses, "drop"
// never answers, "reset" ends the session.
func scriptedPeer(conn net.Conn) {
	defer conn.Close()
	var w frameWriter
	w.init(conn)
	if w.send(kindHello, 0, "", "", "peer") != nil {
		return
	}
	fr := newFrameReader(conn)
	for {
		f, err := fr.next()
		if err != nil {
			return
		}
		switch string(f.op) {
		case "reply":
			err = w.write(appendFrame(nil, kindReply, f.id, "", "", f.payload))
		case "nack":
			err = w.send(kindReply, f.id, "", "refused", nil)
		case "reset":
			return
		}
		if err != nil {
			return
		}
	}
}

// outcome names the class of a completed call's error.
func outcome(err error) string {
	var rpcErr *RPCError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &rpcErr):
		return "refused"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrSessionLost):
		return "lost"
	case errors.Is(err, ErrClosed):
		return "closed"
	}
	return err.Error()
}

// FuzzClientCalls drives Client.Go's pending table through any
// interleaving of reply, refusal, reply timeout, a reply left pending,
// peer reset and Close. Every *Call must complete exactly once, with the
// class of error the script implies, and the session must leave no
// goroutine behind.
func FuzzClientCalls(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 0})
	f.Add([]byte{3, 3, 4, 0, 1, 2, 5, 3})
	f.Add([]byte{2, 3, 0, 5, 5, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 32 {
			script = script[:32]
		}
		goroutines := runtime.NumGoroutine()
		clientEnd, peerEnd := net.Pipe()
		peerDone := make(chan struct{})
		go func() {
			defer close(peerDone)
			scriptedPeer(peerEnd)
		}()
		c, err := handshake(clientEnd, DialOptions{CallTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}

		done := make(chan *Call, len(script)) // one slot per call sent
		want := make(map[*Call]string)        // calls not yet delivered
		outs := make(map[*Call]*string)
		// collect takes n deliveries, which must already be on their way,
		// and checks each against its expected class.
		collect := func(n int) {
			t.Helper()
			for ; n > 0; n-- {
				select {
				case call := <-done:
					class, ok := want[call]
					if !ok {
						t.Fatalf("%s call delivered twice or never sent: %v", call.Op, call.Err)
					}
					if got := outcome(call.Err); got != class {
						t.Fatalf("%s call ended %s (%v), want %s", call.Op, got, call.Err, class)
					}
					if out := outs[call]; class == "ok" && *out != call.Op {
						t.Fatalf("%s call decoded %q", call.Op, *out)
					}
					delete(want, call)
				case <-time.After(10 * time.Second):
					t.Fatalf("%d calls never delivered", n)
				}
			}
		}
		live, closed := true, false
		send := func(op, class string) {
			out := new(string)
			call := c.Go(op, op, out, done)
			outs[call] = out
			switch {
			case closed:
				class = "closed"
			case !live:
				class = "lost"
			}
			want[call] = class
			if !live || class != "pending" {
				collect(1)
			}
		}
		// endSession fails every call left pending.
		endSession := func() {
			n := 0
			for call, class := range want {
				if class == "pending" {
					want[call] = "lost"
					n++
				}
			}
			collect(n)
			live = false
		}
		for _, b := range script {
			switch b % 6 {
			case 0:
				send("reply", "ok")
			case 1:
				send("nack", "refused")
			case 2:
				c.SetCallTimeout(time.Millisecond)
				send("drop", "timeout")
				c.SetCallTimeout(time.Hour)
			case 3:
				send("drop", "pending")
			case 4:
				send("reset", "pending")
				if live {
					<-c.Done()
					endSession()
				}
			case 5:
				c.Close()
				if live {
					endSession()
				}
				closed = true
			}
		}
		c.Close()
		if live {
			endSession()
		}
		<-peerDone
		if len(want) != 0 || len(done) != 0 {
			t.Fatalf("%d calls undelivered, %d delivered unclaimed", len(want), len(done))
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-goroutines)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
