package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wal"
)

// diskGroup builds a one-write group whose after image is the serial
// itself, so recovery output can be checked transaction by transaction.
func diskGroup(serial uint64) *wal.Group {
	img := make([]byte, 8)
	binary.LittleEndian.PutUint64(img, serial)
	return &wal.Group{
		Writes: []*wal.Record{{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID(serial), AfterImage: img}},
		Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial * 65536},
	}
}

// cohortTotals reads a group committer's cohort distribution: commits
// synced, cohorts, and the largest cohort.
func cohortTotals(gc *GroupCommitter) (commits, cohorts, largest uint64) {
	d := gc.CohortSizes()
	n := d.Count()
	return uint64(d.Mean()*float64(n) + 0.5), n, d.Max()
}

// TestGroupCommitFewerSyncsThanCommits is the acceptance test for the
// transient-primary group fsync: under concurrent committers over a slow
// device, cohorts form and the committer issues measurably fewer Sync()
// calls than commits — verified against the logstore's own Stats — and
// every committed transaction still recovers from the synced log.
func TestGroupCommitFewerSyncsThanCommits(t *testing.T) {
	const (
		committers = 8
		perWorker  = 50
		total      = committers * perWorker
	)
	mem := logstore.NewMem()
	slow := logstore.NewDelayed(mem, 200*time.Microsecond)
	gc := NewGroupCommitter(slow, GroupOptions{})
	defer gc.Close()

	var serials atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := gc.Commit(diskGroup(serials.Add(1))); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	commits, cohorts, maxCohort := cohortTotals(gc)
	syncs := mem.Stats().Syncs
	if commits != total {
		t.Fatalf("Commits = %d, want %d", commits, total)
	}
	if syncs >= commits {
		t.Fatalf("Syncs = %d not fewer than Commits = %d: no batching happened", syncs, commits)
	}
	if maxCohort < 2 {
		t.Fatalf("MaxCohort = %d, want > 1 under %d concurrent committers", maxCohort, committers)
	}
	if cohorts != syncs {
		t.Fatalf("Cohorts = %d, Syncs = %d: one sync per cohort expected", cohorts, syncs)
	}

	// Everything that committed is on stable media.
	recovered := store.New()
	rst, err := wal.Replay(bytes.NewReader(mem.SyncedBytes()), wal.NewReplayer(recovered))
	if err != nil {
		t.Fatal(err)
	}
	if rst.Applied != total {
		t.Fatalf("recovered %d groups, want %d", rst.Applied, total)
	}
	for s := uint64(1); s <= total; s++ {
		v, ok := recovered.Get(store.ObjectID(s))
		if !ok || binary.LittleEndian.Uint64(v) != s {
			t.Fatalf("txn %d missing or wrong after recovery", s)
		}
	}
}

// TestGroupCommitPerCommitSync pins MaxCohort 1, the paper's per-commit
// Log Writer: under concurrent committers every commit still gets its
// own sync, its bytes are on stable media by the time Commit returns,
// and a closed committer refuses further commits.
func TestGroupCommitPerCommitSync(t *testing.T) {
	const (
		committers = 8
		perWorker  = 25
		total      = committers * perWorker
	)
	mem := logstore.NewMem()
	gc := NewGroupCommitter(logstore.NewDelayed(mem, 50*time.Microsecond), GroupOptions{MaxCohort: 1})

	var serials atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := serials.Add(1)
				if err := gc.Commit(diskGroup(s)); err != nil {
					t.Errorf("commit %d: %v", s, err)
					return
				}
				if !bytes.Contains(mem.SyncedBytes(), diskGroup(s).AppendEncoded(nil)) {
					t.Errorf("commit %d returned before its records were synced", s)
					return
				}
			}
		}()
	}
	wg.Wait()

	commits, _, maxCohort := cohortTotals(gc)
	if syncs := mem.Stats().Syncs; commits != total || syncs != total {
		t.Fatalf("Commits = %d Syncs = %d, want %d each", commits, syncs, total)
	}
	if maxCohort != 1 {
		t.Fatalf("MaxCohort = %d, want 1", maxCohort)
	}

	gc.Close()
	if err := gc.Commit(diskGroup(total + 1)); !errors.Is(err, ErrStopped) {
		t.Fatalf("commit after close: %v", err)
	}
}

// TestGroupCommitCrashConsistency kills the transient primary mid-cohort
// and checks the durability invariant: every transaction whose Commit had
// returned by the crash point is present after recovering the synced
// prefix of the log. (Unacknowledged in-flight transactions may or may
// not appear; acknowledged ones must.)
func TestGroupCommitCrashConsistency(t *testing.T) {
	const committers = 8
	mem := logstore.NewMem()
	slow := logstore.NewDelayed(mem, 50*time.Microsecond)
	gc := NewGroupCommitter(slow, GroupOptions{MaxCohort: 8})

	var (
		serials atomic.Uint64
		stop    atomic.Bool
		ackMu   sync.Mutex
		acked   []uint64
	)
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s := serials.Add(1)
				if err := gc.Commit(diskGroup(s)); err != nil {
					if errors.Is(err, ErrStopped) {
						return
					}
					t.Errorf("commit: %v", err)
					return
				}
				ackMu.Lock()
				acked = append(acked, s)
				ackMu.Unlock()
			}
		}()
	}

	time.Sleep(30 * time.Millisecond)
	// Crash point: snapshot the acknowledged set FIRST, then the synced
	// log. Every transaction acknowledged before the first snapshot was
	// covered by a sync before it, so it must be inside the second.
	ackMu.Lock()
	ackedAtCrash := append([]uint64(nil), acked...)
	ackMu.Unlock()
	synced := mem.SyncedBytes()

	stop.Store(true)
	gc.Close()
	wg.Wait()
	if len(ackedAtCrash) == 0 {
		t.Fatal("no transactions acknowledged before the crash point")
	}

	recovered := store.New()
	if _, err := wal.Replay(bytes.NewReader(synced), wal.NewReplayer(recovered)); err != nil {
		t.Fatal(err)
	}
	for _, s := range ackedAtCrash {
		v, ok := recovered.Get(store.ObjectID(s))
		if !ok || binary.LittleEndian.Uint64(v) != s {
			t.Fatalf("acknowledged txn %d lost by the crash (%d acked)", s, len(ackedAtCrash))
		}
	}
}

// TestGroupCommitLeaderCoversQueuedFollowers pins the writer's cohorts
// with a deterministic schedule on a slow device: a lone commit syncs
// immediately; two commits arriving while that sync is in flight share
// the next cohort and its single sync.
func TestGroupCommitLeaderCoversQueuedFollowers(t *testing.T) {
	mem := logstore.NewMem()
	slow := logstore.NewDelayed(mem, 20*time.Millisecond)
	gc := NewGroupCommitter(slow, GroupOptions{MaxCohort: 2})
	defer gc.Close()

	done := make(chan error, 3)
	go func() { done <- gc.Commit(diskGroup(1)) }()
	time.Sleep(5 * time.Millisecond) // first sync now in flight
	go func() { done <- gc.Commit(diskGroup(2)) }()
	go func() { done <- gc.Commit(diskGroup(3)) }()
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("group commit hung")
		}
	}
	commits, _, maxCohort := cohortTotals(gc)
	if syncs := mem.Stats().Syncs; commits != 3 || syncs != 2 {
		t.Fatalf("Commits = %d Syncs = %d, want 3 commits over 2 syncs", commits, syncs)
	}
	if maxCohort != 2 {
		t.Fatalf("MaxCohort = %d, want 2", maxCohort)
	}
}

// TestGroupCommitCloseReleasesWaiters: closing mid-cohort fails the open
// cohort with ErrStopped instead of leaving committers parked forever.
func TestGroupCommitCloseReleasesWaiters(t *testing.T) {
	mem := logstore.NewMem()
	slow := logstore.NewDelayed(mem, 20*time.Millisecond)
	gc := NewGroupCommitter(slow, GroupOptions{})

	done := make(chan error, 2)
	go func() { done <- gc.Commit(diskGroup(1)) }()
	time.Sleep(5 * time.Millisecond) // sync in flight
	go func() { done <- gc.Commit(diskGroup(2)) }()
	time.Sleep(2 * time.Millisecond) // second cohort open, leader queued
	gc.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, ErrStopped) {
				t.Fatalf("commit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("commit hung across Close")
		}
	}
	if err := gc.Commit(diskGroup(3)); !errors.Is(err, ErrStopped) {
		t.Fatalf("commit after close: %v", err)
	}
}
