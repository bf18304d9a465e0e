package core

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
)

// shipEngine runs an engine on clock whose commit path is a shipper over
// a pipe; when the shipper fails, the engine switches to a group
// committer over the returned log, as the node does, once hold (if
// non-nil) is closed. The far end of the pipe is returned for the test to
// play the mirror.
func shipEngine(t *testing.T, clock simtime.Clock, hold <-chan struct{}) (*Engine, *MirrorShipper, *transport.Conn, *logstore.Mem) {
	t.Helper()
	db := store.New()
	for i := 0; i < 10; i++ {
		db.Put(store.ObjectID(i), []byte{byte(i)})
	}
	mem := logstore.NewMem()
	disk := NewGroupCommitter(mem, GroupOptions{})
	a, b := transport.Pipe()
	var e *Engine
	sh := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: 10 * time.Second,
		Heartbeat:  time.Hour, // no ping may queue behind a stuck write
		OnFailure: func() {
			if hold != nil {
				<-hold
			}
			e.SetCommitter(disk, LogDisk)
		},
	})
	cfg := Config{Workers: 1, Clock: clock, Overload: sched.OverloadConfig{MaxActive: 128, MinActive: 128}}
	e = NewEngine(cfg, db, sh, LogShip)
	sh.Start()
	t.Cleanup(func() {
		b.Close()
		e.Stop()
		sh.Close()
		disk.Close()
	})
	return e, sh, b, mem
}

// commitSerials decodes a log and returns its commit serials in order,
// and how many write records it holds.
func commitSerials(t *testing.T, log []byte) (commits []uint64, writes int) {
	t.Helper()
	r := bytes.NewReader(log)
	for {
		rec, err := wal.Decode(r)
		if errors.Is(err, io.EOF) {
			return commits, writes
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == wal.TypeCommit {
			commits = append(commits, rec.SerialOrder)
		} else {
			writes++
		}
	}
}

// TestShipperFailureHandsOffToDisk: the mirror acks 1 and 2, reads 3
// without acking it, then stops reading, so 4 is stuck on the wire and 5
// and 6 stay queued. When the connection breaks, the shipper hands 3–6 to
// the disk committer: each reaches the disk log exactly once, in serial
// order, and the watermark passes all of them.
func TestShipperFailureHandsOffToDisk(t *testing.T) {
	e, sh, b, mem := shipEngine(t, simtime.NewWallClock(), nil)
	got3 := make(chan struct{})
	go func() {
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			if m.Type != transport.MsgRecord {
				continue
			}
			// 2 and 3 may share a frame: walk its commits.
			commits, _, err := frameCommits(m.Payload)
			if err != nil {
				continue
			}
			for _, serial := range commits {
				if serial == 3 {
					close(got3)
					return // stop reading
				}
				b.SendControl(transport.MsgAck, serial)
			}
		}
	}()

	var rels []Release
	submit := func(id store.ObjectID) {
		r, err := e.Submit(bump(id))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	for id := store.ObjectID(1); id <= 3; id++ {
		submit(id)
	}
	<-got3
	if err := rels[1].Wait(); err != nil {
		t.Fatal(err)
	}
	submit(4)
	waitFor(t, "the sender to take 4", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.next == 5
	})
	submit(5)
	submit(6)
	sh.mu.Lock()
	queued := len(sh.pending) - sh.sent
	sh.mu.Unlock()
	if queued != 2 || e.DurableThrough() != 2 {
		t.Fatalf("%d commits queued, watermark %d; want 5 and 6 queued behind the stuck write at 2", queued, e.DurableThrough())
	}

	b.Close() // the mirror fails
	for _, r := range rels {
		if err := r.Wait(); err != nil {
			t.Fatalf("commit %d after the hand-off: %v", r.Serial(), err)
		}
	}
	if got := e.DurableThrough(); got != 6 {
		t.Fatalf("DurableThrough = %d, want 6", got)
	}
	commits, writes := commitSerials(t, mem.SyncedBytes())
	if !slices.Equal(commits, []uint64{3, 4, 5, 6}) || writes != 4 {
		t.Fatalf("disk log holds commits %v and %d writes, want [3 4 5 6] once each", commits, writes)
	}
	if e.LogMode() != LogDisk {
		t.Fatalf("log mode %v after the hand-off", e.LogMode())
	}
}
