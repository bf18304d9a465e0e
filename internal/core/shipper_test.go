package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logstore"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wal"
)

// fakeMirror consumes records on conn and acknowledges commit records,
// with optional behavior switches.
type fakeMirror struct {
	conn     *transport.Conn
	silent   atomic.Bool // stop answering (stay connected)
	noAcks   atomic.Bool // answer pings but never acknowledge
	received atomic.Uint64

	mu      sync.Mutex
	commits []uint64 // commit serials in arrival order
}

// commitOrder returns the commit serials received so far, in order.
func (f *fakeMirror) commitOrder() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.commits...)
}

func (f *fakeMirror) run() {
	for {
		m, err := f.conn.Recv()
		if err != nil {
			return
		}
		if f.silent.Load() {
			continue
		}
		switch m.Type {
		case transport.MsgPing:
			f.conn.Send(&transport.Msg{Type: transport.MsgPong})
		case transport.MsgRecord:
			commits, records, err := frameCommits(m.Payload)
			if err != nil {
				return
			}
			f.received.Add(uint64(records))
			for _, serial := range commits {
				f.mu.Lock()
				f.commits = append(f.commits, serial)
				f.mu.Unlock()
				if !f.noAcks.Load() {
					f.conn.Send(&transport.Msg{Type: transport.MsgAck, Serial: serial})
				}
			}
		}
	}
}

// logFrame builds the log frame the shipper sends for a cohort of gs:
// their stored-log bytes back to back, Serial the last commit's.
func logFrame(gs ...*wal.Group) *transport.Msg {
	var b []byte
	for _, g := range gs {
		b = g.AppendEncoded(b)
	}
	return &transport.Msg{Type: transport.MsgRecord, Serial: gs[len(gs)-1].SerialOrder(), Payload: b}
}

// frameCommits walks a log frame and returns its commit serials in order
// and how many records it holds.
func frameCommits(frame []byte) (commits []uint64, records int, err error) {
	for len(frame) > 0 {
		var rec *wal.Record
		var n int
		if rec, n, err = wal.DecodeNext(frame); err != nil {
			return nil, 0, err
		}
		frame = frame[n:]
		records++
		if rec.Type == wal.TypeCommit {
			commits = append(commits, rec.SerialOrder)
		}
	}
	return commits, records, nil
}

func shipperPair(t *testing.T, ackTimeout time.Duration) (*MirrorShipper, *fakeMirror, *atomic.Bool) {
	t.Helper()
	a, b := transport.Pipe()
	fm := &fakeMirror{conn: b}
	go fm.run()
	var failed atomic.Bool
	s := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: ackTimeout,
		Heartbeat:  20 * time.Millisecond,
		OnFailure:  func() { failed.Store(true) },
	})
	s.Start()
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	return s, fm, &failed
}

// ackedBy reports the highest serial the shipper's mirror acknowledged.
func ackedBy(s *MirrorShipper) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

func shipGroup(serial uint64) *wal.Group {
	return &wal.Group{
		Writes: []*wal.Record{{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID(serial), AfterImage: []byte("v")}},
		Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial * 65536},
	}
}

func TestShipperCommitAcked(t *testing.T) {
	s, fm, _ := shipperPair(t, 2*time.Second)
	for i := uint64(1); i <= 5; i++ {
		if err := s.Commit(shipGroup(i)); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if ackedBy(s) != 5 {
		t.Fatalf("Acked = %d", ackedBy(s))
	}
	// Stats are updated by the sender after the wire write; the ack can
	// race ahead of the bookkeeping, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := s.Stats()
		if st.GroupsShipped == 5 && st.RecordsShipped == 10 && st.Acks == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if fm.received.Load() != 10 {
		t.Fatalf("mirror received %d records", fm.received.Load())
	}
}

func TestShipperOutOfOrderCommitsSerialize(t *testing.T) {
	s, _, _ := shipperPair(t, 2*time.Second)
	// Commit serial 2 from one goroutine and serial 1 from another; the
	// sender must ship 1 before 2 regardless of arrival order.
	done2 := make(chan error, 1)
	go func() { done2 <- s.Commit(shipGroup(2)) }()
	time.Sleep(20 * time.Millisecond) // let 2 queue first
	if err := s.Commit(shipGroup(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	if ackedBy(s) != 2 {
		t.Fatalf("Acked = %d", ackedBy(s))
	}
}

func TestShipperAckTimeout(t *testing.T) {
	s, fm, failed := shipperPair(t, 150*time.Millisecond)
	// First commit flows; then the mirror goes silent mid-protocol.
	if err := s.Commit(shipGroup(1)); err != nil {
		t.Fatal(err)
	}
	fm.silent.Store(true)
	start := time.Now()
	err := s.Commit(shipGroup(2))
	if !errors.Is(err, ErrMirrorDown) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Fatal("timed out too early")
	}
	if !failed.Load() {
		t.Fatal("failure callback not invoked")
	}
	// Subsequent commits fail fast.
	if err := s.Commit(shipGroup(3)); !errors.Is(err, ErrMirrorDown) {
		t.Fatalf("post-failure commit: %v", err)
	}
}

func TestShipperDetectsSilentMirrorWhileIdle(t *testing.T) {
	s, fm, failed := shipperPair(t, 150*time.Millisecond)
	if err := s.Commit(shipGroup(1)); err != nil {
		t.Fatal(err)
	}
	fm.silent.Store(true)
	// No commits at all: the idle watchdog alone must notice within a
	// few timeouts.
	deadline := time.Now().Add(3 * time.Second)
	for !failed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("idle shipper never detected the silent mirror")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = s
}

func TestShipperConnCloseFailsPending(t *testing.T) {
	a, b := transport.Pipe()
	var failed atomic.Bool
	s := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: 2 * time.Second,
		Heartbeat:  20 * time.Millisecond,
		OnFailure:  func() { failed.Store(true) },
	})
	s.Start()
	defer s.Close()
	done := make(chan error, 1)
	go func() { done <- s.Commit(shipGroup(1)) }()
	time.Sleep(20 * time.Millisecond)
	b.Close() // peer vanishes
	select {
	case err := <-done:
		if !errors.Is(err, ErrMirrorDown) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending commit never failed")
	}
	if !failed.Load() {
		t.Fatal("failure callback not invoked")
	}
}

func TestShipperUnexpectedMessageFails(t *testing.T) {
	a, b := transport.Pipe()
	var failed atomic.Bool
	s := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: 2 * time.Second,
		Heartbeat:  20 * time.Millisecond,
		OnFailure:  func() { failed.Store(true) },
	})
	s.Start()
	defer s.Close()
	defer b.Close()
	go b.Send(&transport.Msg{Type: transport.MsgSnapshotBegin})
	deadline := time.Now().Add(3 * time.Second)
	for !failed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("protocol violation not detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShipperCloseIdempotent(t *testing.T) {
	s, _, _ := shipperPair(t, time.Second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(shipGroup(1)); !errors.Is(err, ErrMirrorDown) {
		t.Fatalf("commit after close: %v", err)
	}
}

// --- mirror protocol robustness ------------------------------------------

func TestMirrorRejectsBadRecordPayload(t *testing.T) {
	a, b := transport.Pipe()
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	errc := make(chan error, 1)
	go func() { errc <- m.Run(b) }()
	if _, err := a.Recv(); err != nil { // hello
		t.Fatal(err)
	}
	a.Send(&transport.Msg{Type: transport.MsgRecord, Payload: []byte("garbage")})
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("bad record accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mirror did not reject the bad record")
	}
	a.Close()
}

func TestMirrorRejectsChunkWithoutBegin(t *testing.T) {
	a, b := transport.Pipe()
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	errc := make(chan error, 1)
	go func() { errc <- m.Run(b) }()
	a.Recv() // hello
	a.Send(&transport.Msg{Type: transport.MsgSnapshotChunk, Payload: []byte("x")})
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("orphan chunk accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mirror did not reject the orphan chunk")
	}
	a.Close()
}

func TestMirrorRejectsUnknownMessage(t *testing.T) {
	a, b := transport.Pipe()
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	errc := make(chan error, 1)
	go func() { errc <- m.Run(b) }()
	a.Recv() // hello
	a.Send(&transport.Msg{Type: transport.MsgHello})
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("unknown message accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mirror did not reject the message")
	}
	a.Close()
}

func newMemLog() *logstore.Mem { return logstore.NewMem() }
