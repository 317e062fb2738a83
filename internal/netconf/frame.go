package netconf

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// The wire frame, in the spirit of RFC 6242's chunked framing: a fixed
// header announces how many bytes follow, so neither side scans a message
// for its end. All integers are big-endian.
//
//	offset  size  field
//	0       1     frameMark ('#', as an RFC 6242 chunk starts)
//	1       1     kind (kindHello, kindRPC, kindReply, kindNotification)
//	2       2     op length
//	4       4     error length
//	8       4     payload length
//	12      8     id (matches a reply to its RPC; 0 otherwise)
//	20            op, error and payload bytes, in that order
//
// The payload is one JSON value as its sender marshalled it; an empty one
// means none. The error, when non-empty, is the device's reply error.
const (
	headerLen = 20
	frameMark = '#'
	// maxFrame caps the bytes after a header. A header announcing more
	// ends the session, as any other malformed frame does.
	maxFrame = 64 << 20
	// readBuf is a session's read buffer. Management frames run to a few
	// hundred bytes and are handed out in place; a larger one is read
	// into a buffer of its own.
	readBuf = 1 << 10
	// keepBuf is the largest buffer a session keeps between frames, so a
	// session that once moved a large frame does not hold it.
	keepBuf = 64 << 10
)

const (
	kindHello        = 'h'
	kindRPC          = 'c'
	kindReply        = 'r'
	kindNotification = 'n'
)

var errFrameTooLarge = fmt.Errorf("netconf: frame over %d bytes", maxFrame)

// appendFrame appends one complete frame to dst.
func appendFrame(dst []byte, kind byte, id uint64, op, errMsg string, payload []byte) []byte {
	dst = append(dst, frameMark, kind)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(op)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(errMsg)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, op...)
	dst = append(dst, errMsg...)
	return append(dst, payload...)
}

// frame is one frame as read. Its byte slices alias the reader's buffers
// and are valid until the reader's next call.
type frame struct {
	kind    byte
	id      uint64
	op      []byte
	errMsg  []byte
	payload []byte
}

// frameReader reads frames from one connection through one buffered
// reader. A frame that fits the reader's buffer is handed out in place.
type frameReader struct {
	r      *bufio.Reader
	buf    []byte // body of a frame larger than r's buffer
	peeked int    // body bytes handed out in place, skipped on the next call
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBuf)}
}

// next reads one frame.
func (fr *frameReader) next() (frame, error) {
	if fr.peeked > 0 {
		fr.r.Discard(fr.peeked) // cannot fail: the bytes are buffered
		fr.peeked = 0
	}
	if cap(fr.buf) > keepBuf {
		fr.buf = nil
	}
	h, err := fr.r.Peek(headerLen)
	if err != nil {
		return frame{}, err
	}
	if h[0] != frameMark {
		return frame{}, fmt.Errorf("netconf: bad frame mark %#x", h[0])
	}
	f := frame{kind: h[1], id: binary.BigEndian.Uint64(h[12:])}
	opLen := uint64(binary.BigEndian.Uint16(h[2:]))
	errLen := uint64(binary.BigEndian.Uint32(h[4:]))
	n := opLen + errLen + uint64(binary.BigEndian.Uint32(h[8:]))
	if n > maxFrame {
		return frame{}, errFrameTooLarge
	}
	fr.r.Discard(headerLen)
	var body []byte
	if int(n) <= fr.r.Size() {
		if body, err = fr.r.Peek(int(n)); err != nil {
			return frame{}, err
		}
		fr.peeked = int(n)
	} else {
		if fr.buf, err = readN(fr.r, fr.buf, int(n)); err != nil {
			return frame{}, err
		}
		body = fr.buf
	}
	f.op = body[:opLen]
	f.errMsg = body[opLen : opLen+errLen]
	f.payload = body[opLen+errLen:]
	return f, nil
}

// readN reads n bytes into buf's array. It grows the array as the bytes
// arrive, so a header that announces more than its peer sends costs what
// was sent, not what was announced.
func readN(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(len(buf), 4096), n-len(buf)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// frameWriter frames messages for one connection in one reused buffer and
// sends each with one Write. Its mutex serializes the connection's writers
// and guards the buffer from frame through flush.
type frameWriter struct {
	mu   sync.Mutex
	conn net.Conn
	buf  appendWriter
	enc  *json.Encoder // marshals payloads straight into buf
}

// appendWriter is an io.Writer that appends to itself.
type appendWriter []byte

func (a *appendWriter) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

// init binds the writer to conn; the writer must not move afterwards.
func (w *frameWriter) init(conn net.Conn) {
	w.conn = conn
	w.buf = make(appendWriter, 0, 512) // room for a typical frame
	w.enc = json.NewEncoder(&w.buf)
}

// frame builds one frame in the buffer. v, when non-nil, is marshalled
// once, in place, as the payload.
func (w *frameWriter) frame(kind byte, id uint64, op, errMsg string, v interface{}) error {
	if len(op) > 0xFFFF || len(op)+len(errMsg) > maxFrame {
		return errFrameTooLarge
	}
	w.buf = appendFrame(w.buf[:0], kind, id, op, errMsg, nil)
	if v == nil {
		return nil
	}
	if err := w.enc.Encode(v); err != nil {
		return err
	}
	w.buf = w.buf[:len(w.buf)-1] // Encode ends the value with a newline
	n := len(w.buf) - headerLen
	if n > maxFrame {
		return errFrameTooLarge
	}
	binary.BigEndian.PutUint32(w.buf[8:], uint32(n-len(op)-len(errMsg)))
	return nil
}

// setID stamps the id of the frame in the buffer.
func (w *frameWriter) setID(id uint64) {
	binary.BigEndian.PutUint64(w.buf[12:], id)
}

// flush writes the frame in the buffer.
func (w *frameWriter) flush() error {
	_, err := w.conn.Write(w.buf)
	if cap(w.buf) > keepBuf {
		w.buf = nil
	}
	return err
}

// send frames one message and writes it.
func (w *frameWriter) send(kind byte, id uint64, op, errMsg string, v interface{}) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.frame(kind, id, op, errMsg, v); err != nil {
		return err
	}
	return w.flush()
}

// write writes a frame built elsewhere, between this writer's own frames.
func (w *frameWriter) write(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.conn.Write(b)
	return err
}
