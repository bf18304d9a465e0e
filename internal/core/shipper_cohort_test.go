package core

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wal"
)

// manualClock is a hand-advanced Clock safe for concurrent use: Advance
// collects due callbacks under its lock and runs them after releasing it,
// so callbacks may freely take other locks (the shipper's mutex).
type manualClock struct {
	mu     sync.Mutex
	now    simtime.Time
	nextID int
	timers map[int]*manualTimer
}

type manualTimer struct {
	at simtime.Time
	fn func()
}

func newManualClock() *manualClock {
	return &manualClock{timers: make(map[int]*manualTimer)}
}

func (c *manualClock) Now() simtime.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) AfterFunc(d simtime.Duration, fn func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	c.timers[id] = &manualTimer{at: c.now.Add(d), fn: fn}
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.timers[id]
		delete(c.timers, id)
		return ok
	}
}

// Advance moves virtual time forward and fires every timer that came due.
func (c *manualClock) Advance(d simtime.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []func()
	for id, t := range c.timers {
		if t.at <= c.now {
			due = append(due, t.fn)
			delete(c.timers, id)
		}
	}
	c.mu.Unlock()
	for _, fn := range due {
		fn()
	}
}

// TestShipperClockDrivenAckTimeout proves the satellite: all shipper
// timing flows through the injected Clock. The ack timeout here is one
// hour of virtual time against a mirror that never answers — the commit
// must fail with ErrMirrorDown after Advance, in milliseconds of real
// time.
func TestShipperClockDrivenAckTimeout(t *testing.T) {
	a, b := transport.Pipe()
	defer b.Close()
	go func() { // swallow the shipped records, never ack
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	mc := newManualClock()
	var failed atomic.Bool
	s := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: time.Hour,
		Heartbeat:  time.Minute,
		Clock:      mc,
		OnFailure:  func() { failed.Store(true) },
	})
	s.Start()
	defer s.Close()

	done := make(chan error, 1)
	go func() { done <- s.Commit(shipGroup(1)) }()

	// Walk virtual time past the timeout; each step wakes whichever
	// waiter armed a timer. Real-time budget is only a safety net.
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-done:
			if !errors.Is(err, ErrMirrorDown) {
				t.Fatalf("err = %v, want ErrMirrorDown", err)
			}
			if !failed.Load() {
				t.Fatal("failure callback not invoked")
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("virtual-time advance never expired the ack timeout")
		}
		mc.Advance(10 * time.Minute)
		time.Sleep(time.Millisecond)
	}
}

// TestShipperGapHoldFormsOneCohort drives the adaptive window: serial 1
// ships ahead of a gap while 3 is already queued, so the sender holds the
// partial cohort open until 2 arrives — all three groups leave in ONE
// wire batch instead of two.
func TestShipperGapHoldFormsOneCohort(t *testing.T) {
	a, b := transport.Pipe()
	fm := &fakeMirror{conn: b}
	go fm.run()
	var failed atomic.Bool
	s := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: 5 * time.Second,
		Heartbeat:  time.Second,
		MaxHold:    2 * time.Second,
		OnFailure:  func() { failed.Store(true) },
	})
	s.Start()
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})

	done := make(chan error, 3)
	go func() { done <- s.Commit(shipGroup(3)) }()
	time.Sleep(30 * time.Millisecond) // 3 is pending behind the gap
	go func() { done <- s.Commit(shipGroup(1)) }()
	time.Sleep(30 * time.Millisecond) // sender drained 1, now holding for 2
	go func() { done <- s.Commit(shipGroup(2)) }()
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("commit hung")
		}
	}
	st := s.Stats()
	if st.GroupsShipped != 3 {
		t.Fatalf("GroupsShipped = %d, want 3", st.GroupsShipped)
	}
	if st.Cohorts != 1 {
		t.Fatalf("Cohorts = %d, want 1: the hold window should have merged the batch", st.Cohorts)
	}
	if st.MaxCohort != 3 {
		t.Fatalf("MaxCohort = %d, want 3", st.MaxCohort)
	}
	if st.HoldWaits == 0 {
		t.Fatal("HoldWaits = 0, want at least one gap hold")
	}
	if failed.Load() {
		t.Fatal("shipper reported failure")
	}
}

// mirrorPairShipper wires a shipper to a real MirrorEngine over an
// in-process pipe (consuming the mirror's hello like attachMirror does)
// and returns the mirror's database for end-state comparison.
func mirrorPairShipper(t testing.TB, opts ShipperOptions) (*MirrorShipper, *store.Store, func()) {
	t.Helper()
	a, b := transport.Pipe()
	db := store.New()
	m := NewMirrorEngine(fastCfg(), db, newMemLog())
	errc := make(chan error, 1)
	go func() { errc <- m.Run(b) }()
	hello, err := a.Recv()
	if err != nil || hello.Type != transport.MsgHello {
		t.Fatalf("hello: %+v, %v", hello, err)
	}
	s := NewMirrorShipper(a, 1, opts)
	s.Start()
	stop := func() {
		s.Close()
		b.Close()
		<-errc
	}
	return s, db, stop
}

// TestShipperBatchingEquivalence is the property test: the same random
// workload committed concurrently through a per-txn shipper (cohorts of
// one, no hold) and through a cohort-batched shipper must leave two real
// mirrors in identical end states with every commit acknowledged —
// batching changes the wire schedule, never the observable outcome.
func TestShipperBatchingEquivalence(t *testing.T) {
	const (
		nTxns      = 400
		committers = 8
	)
	rng := rand.New(rand.NewSource(20260808))
	groups := make([]*wal.Group, nTxns)
	for i := range groups {
		serial := uint64(i + 1)
		nw := 1 + rng.Intn(3)
		g := &wal.Group{Commit: &wal.Record{
			Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial * 65536,
		}}
		for j := 0; j < nw; j++ {
			img := make([]byte, 4+rng.Intn(12))
			rng.Read(img)
			g.Writes = append(g.Writes, &wal.Record{
				Type: wal.TypeWrite, TxnID: txn.ID(serial),
				ObjectID: store.ObjectID(rng.Intn(64)), AfterImage: img,
			})
		}
		groups[i] = g
	}

	run := func(opts ShipperOptions) ([]store.Record, ShipperStats) {
		s, db, stop := mirrorPairShipper(t, opts)
		var next atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= nTxns {
						return
					}
					if err := s.Commit(groups[i]); err != nil {
						t.Errorf("commit %d: %v", i+1, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		// The mirror acks a group once handed to its parallel applier;
		// stop waits for Run to return, which drains the applier, so
		// the snapshot sees every acked group installed.
		stop()
		if got := s.Acked(); got != nTxns {
			t.Fatalf("Acked = %d, want %d", got, nTxns)
		}
		snap := db.Snapshot()
		sort.Slice(snap, func(i, j int) bool { return snap[i].ID < snap[j].ID })
		return snap, s.Stats()
	}

	perTxn, st := run(ShipperOptions{
		AckTimeout: 10 * time.Second, Heartbeat: 50 * time.Millisecond,
		MaxCohort: 1, // every wire batch carries exactly one group
	})
	if st.Cohorts != st.GroupsShipped {
		t.Fatalf("MaxCohort 1: %d cohorts for %d groups, want one group per cohort", st.Cohorts, st.GroupsShipped)
	}
	batched, _ := run(ShipperOptions{
		AckTimeout: 10 * time.Second, Heartbeat: 50 * time.Millisecond,
		MaxCohort: DefaultMaxCohort, MaxHold: DefaultMaxCohortHold,
	})

	if len(perTxn) != len(batched) {
		t.Fatalf("mirror object counts differ: %d vs %d", len(perTxn), len(batched))
	}
	for i := range perTxn {
		p, q := perTxn[i], batched[i]
		if p.ID != q.ID || p.WriteTS != q.WriteTS || string(p.Value) != string(q.Value) {
			t.Fatalf("object %d diverged: pertxn=%+v batched=%+v", p.ID, p, q)
		}
	}
}

// TestShipperCohortStatsConsistent checks the new accounting plumbing
// under concurrent load: batch counters and the two distributions agree
// with each other.
func TestShipperCohortStatsConsistent(t *testing.T) {
	s, _, stop := mirrorPairShipper(t, ShipperOptions{
		AckTimeout: 10 * time.Second, Heartbeat: 50 * time.Millisecond,
	})
	const n = 100
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > n {
					return
				}
				if err := s.Commit(shipGroup(i)); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The sender counts a batch after writing it, so an ack can release
	// the last committers first; stop waits for the sender to exit.
	stop()
	st := s.Stats()
	if st.GroupsShipped != n {
		t.Fatalf("GroupsShipped = %d, want %d", st.GroupsShipped, n)
	}
	if st.Cohorts == 0 || st.Cohorts > st.GroupsShipped {
		t.Fatalf("Cohorts = %d out of range (GroupsShipped = %d)", st.Cohorts, st.GroupsShipped)
	}
	if got := s.CohortSizes().Count(); got != st.Cohorts {
		t.Fatalf("CohortSizes.Count = %d, want %d", got, st.Cohorts)
	}
	if got := s.QueueDelay().Count(); got != st.GroupsShipped {
		t.Fatalf("QueueDelay.Count = %d, want %d", got, st.GroupsShipped)
	}
	if max := s.CohortSizes().Max(); max != st.MaxCohort {
		t.Fatalf("CohortSizes.Max = %d, stats.MaxCohort = %d", max, st.MaxCohort)
	}
}
