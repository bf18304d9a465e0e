package core

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logstore"
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

// countingClock wraps a Clock and counts AfterFunc calls: the number of
// timers a commit path arms.
type countingClock struct {
	simtime.Clock
	armed atomic.Int64
}

func (c *countingClock) AfterFunc(d simtime.Duration, fn func()) func() bool {
	c.armed.Add(1)
	return c.Clock.AfterFunc(d, fn)
}

// waitFor polls cond until it holds, failing the test after a real-time
// safety bound.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCommitPathArmsNoTimers pins "no timer per commit" as a count:
// 1 000 concurrent commits through the transient-mode group committer
// arm no timer at all, and through the shipper arm none beyond the
// heartbeat ticker's first one (the clock never advances, so it never
// re-arms). A mirror failure with commits in flight arms none on the
// engine's clock: the shipper hands the commits to the disk.
func TestCommitPathArmsNoTimers(t *testing.T) {
	const (
		commits    = 1000
		committers = 4
	)
	run := func(commit func(serial uint64) error) {
		var next atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					serial := next.Add(1)
					if serial > commits {
						return
					}
					if err := commit(serial); err != nil {
						t.Errorf("commit %d: %v", serial, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	disk := &countingClock{Clock: simtime.NewWallClock()}
	gc := buildCommitter(LogDisk, logstore.NewMem(), Config{Clock: disk}.withDefaults())
	run(func(serial uint64) error { return gc.Commit(diskGroup(serial)) })
	gc.Close()
	if n := disk.armed.Load(); n != 0 {
		t.Fatalf("group committer armed %d timers for %d commits, want 0", n, commits)
	}

	ship := &countingClock{Clock: newManualClock()}
	s, _, stop := mirrorPairShipper(t, ShipperOptions{
		AckTimeout: 10 * time.Second, Heartbeat: 50 * time.Millisecond, Clock: ship,
	})
	run(func(serial uint64) error { return s.Commit(shipGroup(serial)) })
	stop()
	if n := ship.armed.Load(); n > 1 {
		t.Fatalf("shipper armed %d timers for %d commits, want at most the ticker's first", n, commits)
	}

	// Mirror failure with commits in flight, and more arriving while the
	// node is still installing the disk: the shipper hands them all to the
	// disk committer, and nothing on the engine's clock waits for the swap.
	engineClock := &countingClock{Clock: simtime.NewWallClock()}
	swap := make(chan struct{})
	e, sh, b, _ := shipEngine(t, engineClock, swap)
	var swapOnce sync.Once
	release := func() { swapOnce.Do(func() { close(swap) }) }
	t.Cleanup(release) // runs before the engine's Stop, even after a failure
	go func() {        // read and never ack
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	var last Release
	submit := func(from, to store.ObjectID) {
		for id := from; id < to; id++ {
			r, err := e.Submit(bump(id))
			if err != nil {
				t.Fatal(err)
			}
			last = r
		}
	}
	submit(0, 4)
	b.Close()
	waitFor(t, "the shipper to fail", func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.failed
	})
	submit(4, 8)
	time.Sleep(20 * time.Millisecond) // let any retry loop start waiting
	release()
	if err := last.Wait(); err != nil {
		t.Fatalf("commit after the mirror failed: %v", err)
	}
	if n := engineClock.armed.Load(); n != 0 {
		t.Fatalf("engine armed %d timers across the mirror swap, want 0", n)
	}
}

// TestShipperGapShipsContiguousPrefix: the sender never holds a cohort
// open for a serial gap. With 3 queued behind the gap at 2, serial 1
// ships alone; once 2 arrives, 2 and 3 leave together as the next cohort.
func TestShipperGapShipsContiguousPrefix(t *testing.T) {
	s, fm, failed := shipperPair(t, 5*time.Second)

	done3 := make(chan error, 1)
	go func() { done3 <- s.Commit(shipGroup(3)) }()
	waitFor(t, "serial 3 to queue", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pending) == 1 && s.pending[0].serial == 3
	})
	if err := s.Commit(shipGroup(1)); err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	if err := s.Commit(shipGroup(2)); err != nil {
		t.Fatalf("commit 2: %v", err)
	}
	select {
	case err := <-done3:
		if err != nil {
			t.Fatalf("commit 3: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit 3 hung")
	}
	s.Close() // waits for the sender, which counts a batch after writing it

	if got := fm.commitOrder(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("mirror saw commits %v, want [1 2 3]", got)
	}
	st := s.Stats()
	if st.GroupsShipped != 3 || st.Cohorts != 2 || st.MaxCohort != 2 {
		t.Fatalf("GroupsShipped = %d Cohorts = %d MaxCohort = %d, want 3 groups in cohorts {1} and {2, 3}",
			st.GroupsShipped, st.Cohorts, st.MaxCohort)
	}
	if failed.Load() {
		t.Fatal("shipper reported failure")
	}
}

// TestShipperAckTimeoutWithLivePongs: a mirror that answers every ping
// but never acknowledges is never silent, so only the stalled-ack rule
// can fail it. The commit must fail with ErrMirrorDown on the first
// heartbeat after AckTimeout of virtual time, and OnFailure must run
// exactly once.
func TestShipperAckTimeoutWithLivePongs(t *testing.T) {
	const (
		ackTimeout = time.Second
		beat       = 100 * time.Millisecond
	)
	a, b := transport.Pipe()
	fm := &fakeMirror{conn: b}
	fm.noAcks.Store(true)
	go fm.run()
	mc := newManualClock()
	var failures atomic.Int32
	s := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: ackTimeout,
		Heartbeat:  beat,
		Clock:      mc,
		OnFailure:  func() { failures.Add(1) },
	})
	s.Start()
	t.Cleanup(func() {
		s.Close()
		b.Close()
	})

	done := make(chan error, 1)
	go func() { done <- s.Commit(shipGroup(1)) }()
	waitFor(t, "the commit to ship", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.shipped
	})

	for tick := 1; ; tick++ {
		mc.Advance(beat)
		now := mc.Now()
		// The first tick only clears the shipped flag. Every later one
		// pings, and its pong lands before virtual time moves on.
		waitFor(t, "the heartbeat tick", func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			if tick == 1 {
				return !s.shipped
			}
			return s.failed || s.lastHeard == now
		})
		s.mu.Lock()
		failed := s.failed
		s.mu.Unlock()
		if !failed {
			if tick > 20 {
				t.Fatal("ack timeout never fired")
			}
			continue
		}
		if elapsed := time.Duration(now); elapsed <= ackTimeout || elapsed > ackTimeout+beat {
			t.Fatalf("failed at virtual %v, want within one heartbeat after %v", now, ackTimeout)
		}
		break
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrMirrorDown) {
			t.Fatalf("err = %v, want ErrMirrorDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit never returned")
	}
	mc.Advance(10 * ackTimeout)
	s.Close()
	if n := failures.Load(); n != 1 {
		t.Fatalf("OnFailure ran %d times, want 1", n)
	}
}

// TestShipperAckTimeoutWithStalledWrite: a mirror that stays connected
// but stops reading leaves the sender blocked in its wire write (a pipe
// write blocks until the peer reads). The heartbeat must keep ticking
// behind that write and fail the waiting commit on the first tick after
// AckTimeout; OnFailure runs once and Close does not wait on the stuck
// write.
func TestShipperAckTimeoutWithStalledWrite(t *testing.T) {
	const (
		ackTimeout = time.Second
		beat       = 100 * time.Millisecond
	)
	a, b := transport.Pipe() // nothing ever reads b
	defer b.Close()
	mc := newManualClock()
	var failures atomic.Int32
	var failedAt atomic.Int64
	s := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: ackTimeout,
		Heartbeat:  beat,
		Clock:      mc,
		OnFailure: func() {
			failures.Add(1)
			failedAt.Store(int64(mc.Now()))
		},
	})
	s.Start()

	done := make(chan error, 1)
	go func() { done <- s.Commit(shipGroup(1)) }()
	waitFor(t, "the sender to take the commit", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.next == 2
	})

	// Each idle tick asks the sender for a ping, which it cannot send
	// while its write is stuck; clearing the request before every tick
	// shows whether the heartbeat is still running.
	for tick := 1; ; tick++ {
		s.mu.Lock()
		s.pingDue = false
		s.mu.Unlock()
		mc.Advance(beat)
		waitFor(t, "the heartbeat tick", func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.pingDue || s.failed
		})
		s.mu.Lock()
		failed := s.failed
		s.mu.Unlock()
		if failed {
			break
		}
		if tick > 20 {
			t.Fatal("ack timeout never fired")
		}
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrMirrorDown) {
			t.Fatalf("err = %v, want ErrMirrorDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit never returned")
	}
	if at := time.Duration(failedAt.Load()); at <= ackTimeout || at > ackTimeout+beat {
		t.Fatalf("failed at virtual %v, want within one heartbeat after %v", at, ackTimeout)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked behind the stuck wire write")
	}
	if n := failures.Load(); n != 1 {
		t.Fatalf("OnFailure ran %d times, want 1", n)
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
// one) and through a cohort-batched shipper must leave two real
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
		if got := ackedBy(s); got != nTxns {
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
		MaxCohort: DefaultMaxCohort,
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
