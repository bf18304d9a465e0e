package core

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
)

// TestShipperCumulativeAckReleasesAll pins down the ack protocol the
// mirror's coalescing relies on: acknowledgments are cumulative, so a
// single MsgAck carrying the highest serial must release every pending
// commit with a lower serial.
func TestShipperCumulativeAckReleasesAll(t *testing.T) {
	const n = 3
	a, b := transport.Pipe()
	var failed atomic.Bool
	s := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: 5 * time.Second,
		Heartbeat:  20 * time.Millisecond,
		OnFailure:  func() { failed.Store(true) },
	})
	s.Start()
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})

	// A mirror that stays quiet until it has seen all n commit records,
	// then answers with one cumulative ack for the last serial.
	go func() {
		var seen []uint64
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case transport.MsgPing:
				b.Send(&transport.Msg{Type: transport.MsgPong})
			case transport.MsgRecord:
				commits, _, err := frameCommits(m.Payload)
				if err != nil {
					return
				}
				if seen = append(seen, commits...); len(seen) == n {
					b.Send(&transport.Msg{Type: transport.MsgAck, Serial: seen[n-1]})
				}
			}
		}
	}()

	done := make(chan error, n)
	for i := uint64(1); i <= n; i++ {
		i := i
		go func() { done <- s.Commit(shipGroup(i)) }()
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cumulative ack did not release all pending commits")
		}
	}
	if ackedBy(s) != n {
		t.Fatalf("Acked = %d, want %d", ackedBy(s), n)
	}
	if failed.Load() {
		t.Fatal("shipper reported failure")
	}
}

// TestMirrorBatchGetsOneCumulativeAck drives the mirror engine with
// three transactions shipped as one wire batch (one log frame, so they
// land in the mirror's read buffer together) and expects a single
// cumulative MsgAck for the highest serial instead of one ack per
// commit record.
func TestMirrorBatchGetsOneCumulativeAck(t *testing.T) {
	a, b := transport.Pipe()
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	errc := make(chan error, 1)
	go func() { errc <- m.Run(b) }()

	hello, err := a.Recv()
	if err != nil || hello.Type != transport.MsgHello {
		t.Fatalf("hello: %+v, %v", hello, err)
	}

	if err := a.Send(logFrame(shipGroup(1), shipGroup(2), shipGroup(3))); err != nil {
		t.Fatal(err)
	}

	ack, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != transport.MsgAck || ack.Serial != 3 {
		t.Fatalf("first reply = type %v serial %d, want one cumulative ack with serial 3", ack.Type, ack.Serial)
	}
	// The coalesced ack is sent only after the whole buffered batch is
	// processed, so all three groups are already handed to the database.
	if got := m.Applied(); got != 3 {
		t.Fatalf("Applied = %d at ack time, want 3", got)
	}
	a.Close()
	<-errc
}

// TestMirrorRejectsSerialGap: acks are cumulative, so a mirror that
// answered serials 1 and 3 with an ack for 3 would release commit 2 on
// the primary, which this mirror never saw. A commit that is not the
// next serial of the stream must fail the session as corruption, and no
// ack may cover it. The gap stops the frame after group 1, which is
// applied, so the log holds exactly group 1.
func TestMirrorRejectsSerialGap(t *testing.T) {
	a, b := transport.Pipe()
	log := newMemLog()
	m := NewMirrorEngine(fastCfg(), store.New(), log)
	errc := make(chan error, 1)
	go func() { errc <- m.Run(b) }()
	if hello, err := a.Recv(); err != nil || hello.Type != transport.MsgHello {
		t.Fatalf("hello: %+v, %v", hello, err)
	}
	acks := make(chan uint64, 16)
	go func() {
		defer close(acks)
		for {
			msg, err := a.Recv()
			if err != nil {
				return
			}
			if msg.Type == transport.MsgAck {
				acks <- msg.Serial
			}
		}
	}()

	if err := a.Send(logFrame(shipGroup(1), shipGroup(3))); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("Run returned %v, want an error wrapping wal.ErrCorrupt", err)
		}
	case <-time.After(5 * time.Second):
		a.Close()
		t.Fatal("the mirror accepted serial 3 after serial 1")
	}
	a.Close()
	for serial := range acks {
		if serial > 1 {
			t.Fatalf("the mirror acknowledged serial %d without holding serial 2", serial)
		}
	}
	if want := logFrame(shipGroup(1)).Payload; !bytes.Equal(log.Bytes(), want) {
		t.Fatalf("log holds %d bytes, want group 1's %d", len(log.Bytes()), len(want))
	}
}
