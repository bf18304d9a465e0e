package transport

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		done <- a.Send(&Msg{Type: MsgRecord, Serial: 7, Payload: []byte("log data")})
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgRecord || m.Serial != 7 || string(m.Payload) != "log data" {
		t.Fatalf("msg = %+v", m)
	}
}

func TestEmptyPayload(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go a.Send(&Msg{Type: MsgPing, Serial: 1})
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgPing || len(m.Payload) != 0 {
		t.Fatalf("msg = %+v", m)
	}
}

func TestSendBatch(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	batch := []*Msg{
		{Type: MsgRecord, Serial: 1, Payload: []byte("one")},
		{Type: MsgRecord, Serial: 2, Payload: []byte("two")},
		{Type: MsgAck, Serial: 3},
	}
	go a.SendBatch(batch)
	for i, want := range batch {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if m.Type != want.Type || m.Serial != want.Serial || !bytes.Equal(m.Payload, want.Payload) {
			t.Fatalf("msg %d = %+v, want %+v", i, m, want)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		m, err := c.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		m.Serial++
		c.Send(&Msg{Type: MsgPong, Serial: m.Serial})
	}()

	c, err := Dial(l.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Msg{Type: MsgPing, Serial: 41}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgPong || m.Serial != 42 {
		t.Fatalf("msg = %+v", m)
	}
	wg.Wait()
}

func TestRecvEOFOnClose(t *testing.T) {
	a, b := Pipe()
	a.Close()
	if _, err := b.Recv(); err == nil {
		t.Fatal("Recv after peer close should fail")
	}
	b.Close()
}

func TestCloseIdempotent(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnblocksStuckSend: a pipe write blocks until the peer reads,
// so a Send to a peer that never reads holds the writer indefinitely.
// Close must not wait for it; the Send fails instead.
func TestCloseUnblocksStuckSend(t *testing.T) {
	a, b := Pipe() // nothing ever reads b
	defer b.Close()
	sent := make(chan error, 1)
	go func() { sent <- a.Send(&Msg{Type: MsgPing}) }()
	time.Sleep(10 * time.Millisecond) // let the Send take the writer
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind the stuck Send")
	}
	select {
	case err := <-sent:
		if err == nil {
			t.Fatal("Send to a peer that never read succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send still blocked after Close")
	}
}

func TestBadFrameCRC(t *testing.T) {
	client, server := net.Pipe()
	c := New(server)
	defer c.Close()
	go func() {
		// A frame with a wrong checksum.
		frame := make([]byte, frameHeader)
		frame[8] = byte(MsgPing)
		frame[0] = 0xde // bogus CRC
		client.Write(frame)
		client.Close()
	}()
	if _, err := c.Recv(); err != ErrBadFrame {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	client, server := net.Pipe()
	c := New(server)
	defer c.Close()
	go func() {
		frame := make([]byte, frameHeader)
		frame[4], frame[5], frame[6], frame[7] = 0xff, 0xff, 0xff, 0x7f
		client.Write(frame)
		client.Close()
	}()
	if _, err := c.Recv(); err != ErrBadFrame {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
	if err := c.Send(&Msg{Type: MsgRecord, Payload: make([]byte, MaxFrameSize)}); err == nil {
		t.Fatal("oversize send accepted")
	}
}

func TestTruncatedFrame(t *testing.T) {
	client, server := net.Pipe()
	c := New(server)
	defer c.Close()
	go func() {
		client.Write([]byte{1, 2, 3})
		client.Close()
	}()
	if _, err := c.Recv(); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const writers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send(&Msg{Type: MsgRecord, Serial: uint64(w*1000 + i), Payload: []byte("pay")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	got := 0
	for got < writers*per {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != MsgRecord || string(m.Payload) != "pay" {
			t.Fatalf("frame interleaving corrupted message: %+v", m)
		}
		got++
	}
	wg.Wait()
}

func TestPropertyFrameRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := func(ty uint8, serial uint64, payload []byte) bool {
		m := &Msg{Type: MsgType(ty), Serial: serial, Payload: payload}
		errc := make(chan error, 1)
		go func() { errc <- a.Send(m) }()
		got, err := b.Recv()
		if err != nil || <-errc != nil {
			return false
		}
		return got.Type == m.Type && got.Serial == m.Serial && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, ty := range []MsgType{MsgHello, MsgRecord, MsgAck, MsgSnapshotBegin,
		MsgSnapshotChunk, MsgSnapshotEnd, MsgPing, MsgPong, MsgType(99)} {
		if ty.String() == "" {
			t.Fatal("empty MsgType string")
		}
	}
}
