package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestPairConvergesWithParallelMirrorApply runs a live pair and a
// workload that mixes disjoint and write-write conflicting transactions:
// the mirror's copy must converge to the primary's, and its stored log must stay in
// validation order (it replays to the same state).
func TestPairConvergesWithParallelMirrorApply(t *testing.T) {
	primary, mirror, _, mLog := startPair(t, LogDisk)
	defer primary.Close()
	defer mirror.Close()

	for i := 0; i < 60; i++ {
		i := i
		err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
			// Disjoint per-transaction object plus a hot shared object:
			// every pair of transactions conflicts on object 0.
			if err := tx.Write(store.ObjectID(i+1), []byte(fmt.Sprintf("v-%d", i))); err != nil {
				return err
			}
			return tx.Write(0, []byte(fmt.Sprintf("hot-%d", i)))
		}})
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	waitConverged(t, primary.DB(), mirror.DB(), 3*time.Second)

	time.Sleep(30 * time.Millisecond) // one async flush cycle
	recovered := store.New()
	st, err := wal.Recover(bytes.NewReader(mLog.SyncedBytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied == 0 {
		t.Fatal("mirror stored no committed groups")
	}
	if recovered.Checksum() != primary.DB().Checksum() {
		t.Fatal("mirror disk log does not replay to the primary state")
	}
}

// TestTakeoverDrainsParallelApply crashes the primary after a run of
// commits: the takeover must promote a fully-applied database (the
// mirror applies each group before it acknowledges the commit), so the
// promoted node's state matches the primary's last committed state and
// it serves immediately.
func TestTakeoverDrainsParallelApply(t *testing.T) {
	primary, mirror, _, _ := startPair(t, LogDisk)
	defer primary.Close()
	defer mirror.Close()

	for i := 0; i < 40; i++ {
		i := i
		if err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i%7), []byte(fmt.Sprintf("pre-crash-%d", i)))
		}}); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	want := primary.DB().Checksum()
	primary.Crash()
	waitEvent(t, mirror, EventTakeover, 5*time.Second)
	if got := mirror.DB().Checksum(); got != want {
		t.Fatalf("promoted database diverged: got %08x want %08x", got, want)
	}
	if err := mirror.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("post-takeover"))
	}}); err != nil {
		t.Fatalf("post-takeover txn: %v", err)
	}
}

// TestMirrorReceiveAllocs bounds the allocations of the mirror's ack
// path. Receiving a frame of one two-write group checks the group in
// place and applies it without a copy of its own: what it allocates is
// the store's, a version and a value copy per installed write, plus an
// item on an insert. Writes the store already holds at a newer commit
// timestamp (commit timestamps are not serial-monotone) install nothing.
func TestMirrorReceiveAllocs(t *testing.T) {
	const runs = 200
	img := make([]byte, 64)
	for _, c := range []struct {
		name   string
		held   uint64 // the commit timestamp objects 0 and 1 already hold; 0 = fresh ids
		budget float64
	}{{"fresh ids", 0, 6}, {"overwrites", 1, 4}, {"superseded overwrites", 1 << 62, 2}} {
		frames := make([][]byte, runs+1) // AllocsPerRun adds one warm-up run
		for i := range frames {
			serial := uint64(i + 1)
			id := store.ObjectID(2 * i)
			if c.held != 0 {
				id = 0
			}
			frames[i] = logFrame(&wal.Group{
				Writes: []*wal.Record{
					{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: id, AfterImage: img},
					{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: id + 1, AfterImage: img},
				},
				Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial << 16},
			}).Payload
		}
		db := store.New()
		if c.held != 0 {
			db.ApplyGroup([]store.Op{{ID: 0, Value: img}, {ID: 1, Value: img}}, c.held)
		}
		m := NewMirrorEngine(Config{}, db, logstore.NewMem())
		rp := wal.NewReplayer(db)
		rp.Restart(0, 0)
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if _, _, err := m.receive(rp, frames[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		t.Logf("%s: %.1f allocations per frame", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s: %.1f allocations per one-group frame, want at most %.0f", c.name, allocs, c.budget)
		}
	}
}
