package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/transport"
)

// holdShipperEngine returns an engine shipping to a fake mirror. The
// heartbeat is too slow to fire during a test, so nothing but a due
// cohort makes the sender ship.
func holdShipperEngine(t *testing.T, maxCohort int) (*Engine, *MirrorShipper) {
	t.Helper()
	a, b := transport.Pipe()
	fm := &fakeMirror{conn: b}
	go fm.run()
	s := NewMirrorShipper(a, 1, ShipperOptions{Heartbeat: time.Hour, MaxCohort: maxCohort})
	s.Start()
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})
	db := store.New()
	for i := 0; i < 10; i++ {
		db.Put(store.ObjectID(i), []byte{byte(i)})
	}
	e := NewEngine(Config{Workers: 1}, db, s, LogShip)
	t.Cleanup(e.Stop)
	return e, s
}

// submitBumps submits n updates and returns the last one's Release.
func submitBumps(t *testing.T, e *Engine, n int) Release {
	t.Helper()
	var last Release
	for i := 0; i < n; i++ {
		r, err := e.Submit(bump(store.ObjectID(i % 10)))
		if err != nil {
			t.Fatal(err)
		}
		last = r
	}
	return last
}

// TestHoldShipsOneFrame: five commits submitted under one hold leave in
// one frame when it is released, not one frame each.
func TestHoldShipsOneFrame(t *testing.T) {
	e, s := holdShipperEngine(t, 0)
	h := e.Hold()
	last := submitBumps(t, e, 5)
	time.Sleep(10 * time.Millisecond)
	if st := s.Stats(); st.Cohorts != 0 {
		t.Fatalf("shipped %+v under the hold", st)
	}
	h.Release()
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	// The sender counts a frame after the wire write, so the ack can
	// come first.
	waitFor(t, "the frame's stats", func() bool { return s.Stats().GroupsShipped == 5 })
	if st := s.Stats(); st.Cohorts != 1 {
		t.Fatalf("stats %+v, want one frame of 5 groups", st)
	}
}

// TestHoldYieldsToFullCohort: a hold never keeps a full cohort back. With
// MaxCohort 4, nine commits under a hold ship as two frames of four at
// once, and the ninth when the hold ends.
func TestHoldYieldsToFullCohort(t *testing.T) {
	e, s := holdShipperEngine(t, 4)
	h := e.Hold()
	last := submitBumps(t, e, 9)
	waitFor(t, "two full frames", func() bool { return s.Stats().GroupsShipped == 8 })
	time.Sleep(10 * time.Millisecond)
	if st := s.Stats(); st.Cohorts != 2 || st.GroupsShipped != 8 || st.MaxCohort != 4 {
		t.Fatalf("under the hold: %+v, want two frames of 4", st)
	}
	h.Release()
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the third frame's stats", func() bool { return s.Stats().GroupsShipped == 9 })
	if st := s.Stats(); st.Cohorts != 3 {
		t.Fatalf("after release: %+v, want the 9th in a third frame", st)
	}
}

// TestGroupCommitHoldOneSync: k commits on the disk path under one hold
// share one Append and one Sync.
func TestGroupCommitHoldOneSync(t *testing.T) {
	const k = 6
	e, _, mem := newTestEngine(t, Config{}, LogDisk)
	h := e.Hold()
	last := submitBumps(t, e, k)
	time.Sleep(10 * time.Millisecond)
	if n := mem.Stats().Syncs; n != 0 {
		t.Fatalf("%d syncs under the hold", n)
	}
	h.Release()
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := mem.Stats().Syncs; n != 1 {
		t.Fatalf("%d commits under one hold took %d syncs, want 1", k, n)
	}
	if n, m := e.CommitCohorts().Count(), e.CommitCohorts().Max(); n != 1 || m != k {
		t.Fatalf("cohorts: %d advances, largest %d; want one of %d", n, m, k)
	}
}

// TestConcurrentHoldsLoseNoWakeUp: holds taken and released by many
// submitters at once never strand a commit on the disk path, which has
// no heartbeat to rescue one: the last Release always finds the cohort.
func TestConcurrentHoldsLoseNoWakeUp(t *testing.T) {
	const submitters, rounds, perHold = 8, 25, 3
	e, _, _ := newTestEngine(t, Config{Workers: 2, Overload: sched.OverloadConfig{MaxActive: 1000, MinActive: 1000}}, LogDisk)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := e.Hold()
				var last Release
				for i := 0; i < perHold; i++ {
					rel, err := e.Submit(bump(store.ObjectID(g)))
					if err != nil {
						t.Error(err)
					}
					last = rel
				}
				h.Release()
				if err := last.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := e.DurableThrough(), uint64(submitters*rounds*perHold); got != want {
		t.Fatalf("DurableThrough = %d, want %d", got, want)
	}
}
