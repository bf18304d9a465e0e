package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/store"
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
