// Package netconf implements the NETCONF-like management protocol the
// FlexWAN controller uses to configure and monitor optical devices
// (§4.3–4.4 of the paper: the DevMgr "issues a Yang file containing
// detailed configuration parameters to configure the device through the
// Netconf protocol").
//
// The reproduction keeps NETCONF's session semantics — a hello exchange,
// request/reply RPCs (get-config, edit-config, get-state), and
// asynchronous notifications — with JSON documents on TCP, since the
// standard library ships no XML-RPC stack and the paper's point is the
// vendor-agnostic single protocol, not the wire syntax. Each message is a
// length-prefixed frame (frame.go), in the spirit of RFC 6242's chunked
// framing: a short header announces kind, id, op, error and payload
// length, and the payload's JSON follows as its sender marshalled it.
package netconf

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Well-known RPC operations, mirroring NETCONF's protocol operations.
const (
	OpGetConfig  = "get-config"
	OpEditConfig = "edit-config"
	OpGetState   = "get-state"
	// OpHello names the server→client hello greeting for fault
	// interception. It is not a callable RPC: interceptors see it once
	// per accepted session, before the greeting is sent.
	OpHello = "hello"
)

// Handler processes one RPC on the server (device) side. The returned
// value is JSON-encoded into the reply payload. payload is valid until the
// handler returns; a handler that keeps it copies it.
type Handler func(op string, payload json.RawMessage) (interface{}, error)

// RPCFault tells a server how to mistreat one inbound RPC — the hook the
// chaos engine (internal/chaos) uses to inject management-plane faults
// without touching the wire protocol.
type RPCFault int

const (
	// FaultNone handles the RPC normally.
	FaultNone RPCFault = iota
	// FaultDropRequest discards the RPC without executing it or
	// replying; the client sees a timeout.
	FaultDropRequest
	// FaultDropReply executes the RPC (side effects apply) but
	// suppresses the reply; the client sees a timeout. Retrying an
	// idempotent document must converge.
	FaultDropReply
	// FaultReset closes the session's connection mid-RPC.
	FaultReset
)

// FaultDecision is an Interceptor's verdict for one inbound RPC.
type FaultDecision struct {
	Fault RPCFault
	// Delay is slept before acting on the RPC (still within the
	// session's serving goroutine, so it also delays later RPCs on the
	// same session, as a congested device would).
	Delay time.Duration
	// Err, when non-empty, replies with this RPC error instead of
	// executing — an injected device NACK (e.g. a commit rejection).
	Err string
}

// Interceptor inspects every inbound RPC before the Handler runs and
// decides its fate. A nil interceptor (the default) passes everything.
type Interceptor func(op string) FaultDecision

// Server is a device-side management endpoint: it answers RPCs with the
// Handler and can push notifications to every connected session.
type Server struct {
	hello   interface{}
	handler Handler

	mu          sync.Mutex
	listener    net.Listener
	sessions    map[*session]struct{}
	closed      bool
	wg          sync.WaitGroup
	interceptor Interceptor
}

type session struct {
	conn net.Conn
	w    frameWriter
}

// reply sends the reply to RPC id: result as its payload, or err.
func (s *session) reply(id uint64, op string, result interface{}, err error) error {
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	var msg string
	if err != nil {
		msg, result = err.Error(), nil
	}
	if err := s.w.frame(kindReply, id, op, msg, result); err != nil {
		if err := s.w.frame(kindReply, id, op, fmt.Sprintf("netconf: encoding reply: %v", err), nil); err != nil {
			return err
		}
	}
	return s.w.flush()
}

// NewServer returns a server that greets each session with the hello
// document (typically the device's Descriptor) and dispatches RPCs to h.
func NewServer(hello interface{}, h Handler) *Server {
	return &Server{hello: hello, handler: h, sessions: make(map[*session]struct{})}
}

// SetInterceptor installs (or, with nil, removes) the RPC fault
// interceptor. It survives Stop/Listen cycles, so an injector bound to a
// device persists across simulated crashes.
func (s *Server) SetInterceptor(i Interceptor) {
	s.mu.Lock()
	s.interceptor = i
	s.mu.Unlock()
}

func (s *Server) currentInterceptor() Interceptor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.interceptor
}

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address. Serving continues until Close.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return "", errors.New("netconf: server closed")
	}
	if s.listener != nil {
		s.mu.Unlock()
		l.Close()
		return "", errors.New("netconf: server already listening")
	}
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		sess := &session{conn: conn}
		sess.w.init(conn)
		s.mu.Lock()
		// A stale listener means Stop/Close raced the accept: this
		// server instance is down, so the connection dies with it.
		if s.closed || s.listener != l {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveSession(sess)
	}
}

func (s *Server) serveSession(sess *session) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		sess.conn.Close()
	}()

	fr := newFrameReader(sess.conn)
	// The greeting passes through the interceptor as pseudo-op OpHello so
	// drills can exercise the dial path: a dropped or reset hello makes
	// the client's dial fail, which the controller must treat as a
	// transient dial failure — never as a verified session.
	if icpt := s.currentInterceptor(); icpt != nil {
		d := icpt(OpHello)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		switch d.Fault {
		case FaultDropRequest, FaultDropReply:
			// Session stays open but never greets; the client times out
			// waiting for the hello.
			_, _ = fr.next()
			return
		case FaultReset:
			return
		}
	}
	if err := sess.w.send(kindHello, 0, "", "", s.hello); err != nil {
		return
	}
	for {
		f, err := fr.next()
		if err != nil {
			return
		}
		if f.kind != kindRPC {
			continue
		}
		op := string(f.op)
		if icpt := s.currentInterceptor(); icpt != nil {
			d := icpt(op)
			if d.Delay > 0 {
				time.Sleep(d.Delay)
			}
			switch d.Fault {
			case FaultDropRequest:
				continue
			case FaultReset:
				return
			}
			if d.Err != "" {
				if err := sess.w.send(kindReply, f.id, op, d.Err, nil); err != nil {
					return
				}
				continue
			}
			if d.Fault == FaultDropReply {
				_, _ = s.handler(op, f.payload)
				continue
			}
		}
		result, err := s.handler(op, f.payload)
		if err := sess.reply(f.id, op, result, err); err != nil {
			return
		}
	}
}

// Sessions returns how many management sessions the server holds open.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Notify pushes an asynchronous notification to every connected session
// (NETCONF's <notification>). Sessions that fail to accept the write are
// dropped.
func (s *Server) Notify(event interface{}) {
	data, err := json.Marshal(event)
	if err != nil {
		return
	}
	frame := appendFrame(nil, kindNotification, 0, "", "", data)
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		if err := sess.w.write(frame); err != nil {
			sess.conn.Close()
		}
	}
}

// Stop drops the listener and every session but leaves the server
// reusable: a later Listen (typically on the same address) brings it
// back. This is the crash half of a simulated device crash/restart.
func (s *Server) Stop() {
	s.mu.Lock()
	l := s.listener
	s.listener = nil
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, sess := range sessions {
		sess.conn.Close()
	}
	s.wg.Wait()
}

// Close stops the listener and drops every session, permanently.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.Stop()
}

// Client is a controller-side management session to one device.
type Client struct {
	conn        net.Conn
	hello       json.RawMessage
	callTimeout time.Duration

	w frameWriter // serializes writes, as session.w does on the server side

	mu     sync.Mutex
	nextID uint64
	// pending holds the calls in flight. Whoever removes a call — the read
	// loop with its reply or its failure, the call's timer, a failed send —
	// completes it, so a call completes exactly once.
	pending map[uint64]*Call
	closed  bool
	// readErr is what ended the read loop. Once it is set nobody is left
	// to answer a pending entry, so Go must not register one.
	readErr error

	notifications chan json.RawMessage
	done          chan struct{}
}

// Call is one RPC in flight, in the shape of net/rpc's Call: Go sends it
// and it is delivered on Done, once, when a reply, the session's end or
// the call timeout completes it.
type Call struct {
	Op   string
	Out  interface{} // the reply payload is decoded here; may be nil
	Err  error       // the outcome, set before delivery on Done
	Done chan *Call

	timer *time.Timer
}

func (call *Call) finish(err error) {
	if call.timer != nil {
		call.timer.Stop()
	}
	call.Err = err
	call.Done <- call
}

// DialTimeout is the default connect/RPC deadline.
const DialTimeout = 5 * time.Second

// DialOptions tunes one management session's timeouts. The zero value
// uses the package defaults.
type DialOptions struct {
	// DialTimeout bounds the TCP connect plus the hello exchange
	// (default DialTimeout).
	DialTimeout time.Duration
	// CallTimeout bounds each RPC round trip (default DialTimeout). A
	// fault-injection drill shortens this so dropped RPCs surface —
	// and retry — quickly.
	CallTimeout time.Duration
}

func (o DialOptions) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return DialTimeout
	}
	return o.DialTimeout
}

func (o DialOptions) callTimeout() time.Duration {
	if o.CallTimeout <= 0 {
		return DialTimeout
	}
	return o.CallTimeout
}

// Transient session errors: a Call that fails with one of these may
// succeed if retried (possibly on a fresh session), in contrast to an
// *RPCError, which is the device deliberately rejecting the request.
var (
	// ErrTimeout marks an RPC whose reply did not arrive in time.
	ErrTimeout = errors.New("rpc timed out")
	// ErrSessionLost marks an RPC interrupted by session failure.
	ErrSessionLost = errors.New("session lost")
	// ErrClosed marks use of a locally closed client.
	ErrClosed = errors.New("session closed")
)

// RPCError is an error the device itself reported in its reply — an
// application-level NACK (unsupported config, rejected commit). It is
// not transient: retrying the identical request will fail again.
type RPCError struct {
	Op  string
	Msg string
}

func (e *RPCError) Error() string { return fmt.Sprintf("netconf: %s: %s", e.Op, e.Msg) }

// IsTransient reports whether err is a transport-level failure worth
// retrying (timeout or lost session), as opposed to a device NACK or a
// local usage error.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrSessionLost)
}

// Dial opens a management session with default timeouts and completes
// the hello exchange.
func Dial(addr string) (*Client, error) {
	return DialWithOptions(addr, DialOptions{})
}

// DialWithOptions opens a management session with explicit timeouts.
func DialWithOptions(addr string, opts DialOptions) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.dialTimeout())
	if err != nil {
		return nil, err
	}
	return handshake(conn, opts)
}

// notificationSlots is how many unread notifications a session holds
// before it drops the next one. A device raises one alarm per loss-of-signal
// flip, so a few slots cover any burst a consumer can fall behind on.
const notificationSlots = 16

// handshake waits for the device's hello on conn and starts the session;
// conn is closed on failure.
func handshake(conn net.Conn, opts DialOptions) (*Client, error) {
	c := &Client{
		conn:          conn,
		callTimeout:   opts.callTimeout(),
		pending:       make(map[uint64]*Call),
		notifications: make(chan json.RawMessage, notificationSlots),
		done:          make(chan struct{}),
	}
	c.w.init(conn)
	// The server speaks first.
	fr := newFrameReader(conn)
	if err := conn.SetReadDeadline(time.Now().Add(opts.dialTimeout())); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netconf: arming hello deadline: %w", err)
	}
	hello, err := fr.next()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("netconf: hello: %w", err)
	}
	if hello.kind != kindHello {
		conn.Close()
		return nil, fmt.Errorf("netconf: expected hello, got kind %q", hello.kind)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netconf: clearing hello deadline: %w", err)
	}
	c.hello = append(json.RawMessage(nil), hello.payload...)
	go c.readLoop(fr)
	return c, nil
}

// Hello returns the raw hello document the device sent (its Descriptor).
func (c *Client) Hello(out interface{}) error {
	return json.Unmarshal(c.hello, out)
}

func (c *Client) readLoop(fr *frameReader) {
	defer close(c.done)
	for {
		f, err := fr.next()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			lost := c.pending
			c.pending = nil
			c.mu.Unlock()
			for _, call := range lost {
				call.finish(fmt.Errorf("netconf: during %s (%v): %w", call.Op, err, ErrSessionLost))
			}
			close(c.notifications)
			return
		}
		switch f.kind {
		case kindReply:
			if call := c.take(f.id); call != nil {
				call.finish(call.decode(f))
			}
		case kindNotification:
			select {
			case c.notifications <- append(json.RawMessage(nil), f.payload...):
			default:
				// Slow consumer: drop rather than stall the session.
			}
		}
	}
}

// take claims the pending call, if it is still pending.
func (c *Client) take(id uint64) *Call {
	c.mu.Lock()
	call := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return call
}

// fail completes the call with err, unless something else already has.
func (c *Client) fail(id uint64, err error) {
	if call := c.take(id); call != nil {
		call.finish(err)
	}
}

func (call *Call) decode(f frame) error {
	if len(f.errMsg) > 0 {
		return &RPCError{Op: call.Op, Msg: string(f.errMsg)}
	}
	if call.Out != nil && len(f.payload) > 0 {
		if err := json.Unmarshal(f.payload, call.Out); err != nil {
			return fmt.Errorf("netconf: decoding %s reply: %w", call.Op, err)
		}
	}
	return nil
}

// Notifications streams asynchronous device events. The channel closes
// when the session ends.
func (c *Client) Notifications() <-chan json.RawMessage { return c.notifications }

// Call performs one RPC. in is JSON-encoded into the request payload
// (nil for none); the reply payload is decoded into out (out may be nil).
func (c *Client) Call(op string, in, out interface{}) error {
	return (<-c.Go(op, in, out, make(chan *Call, 1)).Done).Err
}

// Go sends one RPC and returns without waiting for the reply: the call is
// delivered on done when it completes. Its deadline runs from the send,
// and a timeout is a completion like any other. done may be shared by the
// calls of many clients, which is how one goroutine keeps RPCs to many
// devices in flight and takes them in completion order; it must have room
// for every call in flight on it, because read loops deliver without
// waiting for the receiver.
func (c *Client) Go(op string, in, out interface{}, done chan *Call) *Call {
	call := &Call{Op: op, Out: out, Done: done}
	// The request is framed before it is registered, so one that cannot
	// be encoded never becomes pending; the write lock is held until it is
	// sent, because the frame is built in the session's buffer.
	c.w.mu.Lock()
	if err := c.w.frame(kindRPC, 0, op, "", in); err != nil {
		c.w.mu.Unlock()
		call.finish(fmt.Errorf("netconf: encoding %s request: %w", op, err))
		return call
	}
	c.mu.Lock()
	// Liveness is checked in the critical section that registers the
	// pending call: the read loop takes every pending call under the same
	// lock when it records readErr, so a call either sees the dead session
	// here or is failed by the read loop — it never waits out the call
	// timeout for a reply no one can deliver.
	if err := c.errLocked(); err != nil {
		c.mu.Unlock()
		c.w.mu.Unlock()
		call.finish(fmt.Errorf("netconf: %s: %w", op, err))
		return call
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = call
	timeout := c.callTimeout
	if timeout <= 0 {
		timeout = DialTimeout
	}
	call.timer = time.AfterFunc(timeout, func() { c.fail(id, fmt.Errorf("netconf: %s: %w", op, ErrTimeout)) })
	c.mu.Unlock()

	c.w.setID(id)
	err := c.w.flush()
	c.w.mu.Unlock()
	if err != nil {
		c.fail(id, fmt.Errorf("netconf: sending %s (%v): %w", op, err, ErrSessionLost))
	}
	return call
}

// Done is closed once the session has ended, whether the peer dropped it,
// the connection failed or Close was called. After that Err is non-nil
// and every Call fails at once.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err reports why the session ended: nil while it is live, otherwise an
// error wrapping ErrClosed (Close ended it) or ErrSessionLost (anything
// else did). A session pool reads it to tell a dead session from a live
// one without spending an RPC.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errLocked()
}

func (c *Client) errLocked() error {
	switch {
	case c.closed:
		return ErrClosed
	case c.readErr != nil:
		return fmt.Errorf("session ended (%v): %w", c.readErr, ErrSessionLost)
	}
	return nil
}

// SetCallTimeout changes the per-RPC deadline for subsequent Calls.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	c.callTimeout = d
	c.mu.Unlock()
}

// Close ends the session.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
