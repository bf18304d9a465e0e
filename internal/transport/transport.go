// Package transport implements the message channel between the Primary
// and Mirror nodes of a RODAIN pair: a length-prefixed, CRC-checked
// framing protocol carrying log frames primary→mirror (one per commit
// cohort) and cumulative commit acknowledgments mirror→primary, plus the
// handshake and state-transfer messages used when a recovered node
// rejoins as mirror.
//
// The framing runs over any io.ReadWriteCloser; production uses a TCP
// net.Conn, tests use net.Pipe.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol messages.
const (
	// MsgHello opens a session; Serial carries the sender's last known
	// validation order (the mirror's replay position).
	MsgHello MsgType = iota + 1
	// MsgRecord is a log frame: Payload holds whole committed groups in
	// wal's stored-log encoding, back to back in serial order, and
	// Serial is the last group's commit serial. The mirror stores the
	// payload as received.
	MsgRecord
	// MsgAck acknowledges that every log record of the transaction
	// whose commit record had validation order Serial is on the mirror.
	MsgAck
	// MsgSnapshotBegin starts a state transfer; Serial is the last
	// serial order the transfer covers (the log stream resumes after it).
	MsgSnapshotBegin
	// MsgSnapshotChunk carries a chunk of checkpoint-encoded records.
	MsgSnapshotChunk
	// MsgSnapshotEnd completes a state transfer; Serial bounds from above
	// the serial order of any write the image holds.
	MsgSnapshotEnd
	// MsgPing and MsgPong are watchdog heartbeats.
	MsgPing
	MsgPong
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgRecord:
		return "record"
	case MsgAck:
		return "ack"
	case MsgSnapshotBegin:
		return "snapshot-begin"
	case MsgSnapshotChunk:
		return "snapshot-chunk"
	case MsgSnapshotEnd:
		return "snapshot-end"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Msg is one protocol message.
type Msg struct {
	Type    MsgType
	Serial  uint64
	Payload []byte
}

// msgPool recycles frames between RecvPooled and ReleaseMsg. Pooled
// messages keep their payload capacity, so a steady-state log stream
// receives without allocating.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// ReleaseMsg returns a message obtained from RecvPooled to the frame
// pool. The message and its payload must not be used afterwards. Passing
// a message not obtained from RecvPooled is allowed (its payload buffer
// joins the pool); passing nil is a no-op.
func ReleaseMsg(m *Msg) {
	if m == nil {
		return
	}
	m.Type = 0
	m.Serial = 0
	m.Payload = m.Payload[:0]
	msgPool.Put(m)
}

// ErrBadFrame reports framing or checksum damage on the wire.
var ErrBadFrame = errors.New("transport: bad frame")

// MaxFrameSize bounds a single frame to keep a damaged length field from
// allocating unbounded memory.
const MaxFrameSize = 1 << 26 // 64 MiB

// frame header: crc(4) paylen(4) type(1) serial(8)
const frameHeader = 4 + 4 + 1 + 8

// Conn is a framed duplex message connection. Read and Write may be used
// concurrently with each other; concurrent Writes are serialized
// internally.
type Conn struct {
	rw io.ReadWriteCloser
	br *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer

	wbuf []byte

	closeOnce sync.Once
	closeErr  error
}

// New wraps rw in the framing protocol.
func New(rw io.ReadWriteCloser) *Conn {
	return &Conn{
		rw: rw,
		br: bufio.NewReaderSize(rw, 1<<16),
		bw: bufio.NewWriterSize(rw, 1<<16),
	}
}

// Dial connects to a RODAIN node at addr (TCP).
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // commit latency beats throughput here
	}
	return New(c), nil
}

// Send writes one message and flushes it to the wire.
func (c *Conn) Send(m *Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.encodeLocked(m); err != nil {
		return err
	}
	return c.bw.Flush()
}

// SendBatch writes several messages with a single flush.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (c *Conn) SendBatch(ms []*Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for _, m := range ms {
		if err := c.encodeLocked(m); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

func (c *Conn) encodeLocked(m *Msg) error {
	if len(m.Payload) > MaxFrameSize-frameHeader {
		return fmt.Errorf("transport: frame too large: %d bytes", len(m.Payload))
	}
	need := frameHeader + len(m.Payload)
	if cap(c.wbuf) < need {
		c.wbuf = make([]byte, need)
	}
	buf := c.wbuf[:need]
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(m.Payload)))
	buf[8] = byte(m.Type)
	binary.LittleEndian.PutUint64(buf[9:], m.Serial)
	copy(buf[frameHeader:], m.Payload)
	binary.LittleEndian.PutUint32(buf[:4], crc32.ChecksumIEEE(buf[4:]))
	_, err := c.bw.Write(buf)
	return err
}

// Recv reads the next message. It returns io.EOF on clean shutdown and
// ErrBadFrame on checksum or framing damage. The returned message and
// payload are freshly allocated and owned by the caller; hot paths that
// can promise not to retain them should use RecvPooled.
func (c *Conn) Recv() (*Msg, error) {
	m := new(Msg)
	if err := c.recvInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// RecvPooled is Recv drawing the message and its payload buffer from the
// frame pool: a receive loop that calls ReleaseMsg after processing each
// message runs allocation-free once payload capacities have warmed up.
// The message must not be retained past ReleaseMsg.
func (c *Conn) RecvPooled() (*Msg, error) {
	m := msgPool.Get().(*Msg)
	if err := c.recvInto(m); err != nil {
		ReleaseMsg(m)
		return nil, err
	}
	return m, nil
}

// recvInto reads the next frame into m, growing (or allocating) the
// payload buffer only when its capacity is insufficient.
func (c *Conn) recvInto(m *Msg) error {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(c.br, hdr[:1]); err != nil {
		return err
	}
	if _, err := io.ReadFull(c.br, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	payLen := binary.LittleEndian.Uint32(hdr[4:])
	if int(payLen) > MaxFrameSize-frameHeader {
		return ErrBadFrame
	}
	m.Type = MsgType(hdr[8])
	m.Serial = binary.LittleEndian.Uint64(hdr[9:])
	m.Payload = m.Payload[:0]
	if payLen > 0 {
		if uint32(cap(m.Payload)) < payLen {
			m.Payload = make([]byte, payLen)
		} else {
			m.Payload = m.Payload[:payLen]
		}
		if _, err := io.ReadFull(c.br, m.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	crc := crc32.ChecksumIEEE(hdr[4:])
	crc = crc32.Update(crc, crc32.IEEETable, m.Payload)
	if crc != binary.LittleEndian.Uint32(hdr[:4]) {
		return ErrBadFrame
	}
	return nil
}

// SendControl sends a payload-less message (ack, ping, pong, hello)
// without constructing a Msg on the heap — these are the per-commit and
// per-heartbeat frames of the mirror protocol.
func (c *Conn) SendControl(t MsgType, serial uint64) error {
	m := Msg{Type: t, Serial: serial}
	return c.Send(&m)
}

// Buffered reports how many received bytes are waiting in the read
// buffer — data already delivered to this side but not yet consumed by
// Recv. A receive loop can use it to tell "more of this batch is
// already here" (> 0) from "the wire is drained for now" (== 0), e.g.
// to coalesce acknowledgments across a burst of frames.
func (c *Conn) Buffered() int { return c.br.Buffered() }

// SetRecvDeadline sets a read deadline on the underlying stream, when it
// supports one (net.Conn does; net.Pipe does too). It reports whether a
// deadline could be set. A zero time clears the deadline.
func (c *Conn) SetRecvDeadline(t time.Time) bool {
	if d, ok := c.rw.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t) == nil
	}
	return false
}

// SetSendDeadline is SetRecvDeadline for writes: a Send that cannot hand
// its frame to the stream by t fails.
func (c *Conn) SetSendDeadline(t time.Time) bool {
	if d, ok := c.rw.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return d.SetWriteDeadline(t) == nil
	}
	return false
}

// Close closes the underlying stream. Safe to call multiple times and
// concurrently with Recv and Send (which will then return an error).
// Buffered output is flushed only when no Send holds the writer: a Send
// stuck on a peer that stopped reading must not block Close, so the
// stream is closed under it instead.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		if c.wmu.TryLock() {
			c.bw.Flush()
			c.wmu.Unlock()
		}
		c.closeErr = c.rw.Close()
	})
	return c.closeErr
}

// Pipe returns two connected in-process Conns, for tests.
func Pipe() (*Conn, *Conn) {
	a, b := net.Pipe()
	return New(a), New(b)
}

// Listener accepts framed connections.
type Listener struct {
	L net.Listener
}

// Listen starts a TCP listener on addr.
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{L: l}, nil
}

// Accept waits for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	c, err := l.L.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return New(c), nil
}

// Addr reports the listener's address.
func (l *Listener) Addr() string { return l.L.Addr().String() }

// Close stops the listener.
func (l *Listener) Close() error { return l.L.Close() }
