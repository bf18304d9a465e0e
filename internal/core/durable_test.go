package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/wal"
)

func TestDurableMarkContiguousPrefix(t *testing.T) {
	// The committer's queue releases only the contiguous run: 13 waits
	// behind the gap at 12.
	var q cohortQueue
	q.init(11, nil)
	q.adopt(11, []*commit{{serial: 13}, {serial: 11}})
	if got := q.drain(nil, 8); len(got) != 1 || got[0].serial != 11 {
		t.Fatalf("drained %v with 12 missing, want [11]", got)
	}
	if cs := q.settle(11); len(cs) != 1 {
		t.Fatalf("settle(11) = %d commits", len(cs))
	}
	q.enqueue(&commit{serial: 12})
	if got := q.drain(nil, 8); len(got) != 2 || got[1].serial != 13 {
		t.Fatalf("drained %d after the gap filled, want 12 and 13", len(got))
	}
	done := make(chan error, 1)
	q.enqueue(&commit{serial: 10, done: done})
	if err := <-done; err != nil || len(q.pending) != 2 {
		t.Fatalf("a serial below the stable point: %v, %d queued", err, len(q.pending))
	}

	d := newDurableMark()
	d.seed(10)
	if got := d.through.Load(); got != 10 {
		t.Fatalf("seeded through = %d", got)
	}
	waited := make(chan error, 1)
	go func() { waited <- d.wait(13) }()
	d.advance(11)
	select {
	case err := <-waited:
		t.Fatalf("wait(13) returned %v at 11", err)
	case <-time.After(20 * time.Millisecond):
	}
	d.advance(13)
	if err := <-waited; err != nil {
		t.Fatalf("wait(13): %v", err)
	}
	if n, m := d.cohorts.Count(), d.cohorts.Max(); n != 2 || m != 2 {
		t.Fatalf("cohorts: %d advances, largest %d; want 2 and 2", n, m)
	}

	boom := errors.New("boom")
	d.fail(15, boom)
	d.advance(16) // behind the failure: stops at 14
	if got := d.through.Load(); got != 14 {
		t.Fatalf("through = %d, want 14 (15 failed)", got)
	}
	if err := d.wait(14); err != nil {
		t.Fatalf("wait(14): %v", err)
	}
	for _, s := range []uint64{15, 16} {
		if err := d.wait(s); !errors.Is(err, ErrNodeFailure) {
			t.Fatalf("wait(%d) = %v, want ErrNodeFailure", s, err)
		}
	}
}

// gateCommitter holds every commit until release, then reports each
// contiguous run stable in one advance, failing the serials listed in
// fail. Never released, it is a commit path that has lost its device and
// waits for the node to install the next one.
type gateCommitter struct {
	cohortQueue
	open bool
	fail map[uint64]error
}

func newGate(fail map[uint64]error) *gateCommitter {
	c := &gateCommitter{fail: fail}
	c.init(1, c.releaseLocked)
	return c
}

func (c *gateCommitter) releaseLocked() {
	if !c.open || !c.ready() {
		return
	}
	run := c.drain(nil, len(c.pending))
	cs := c.settle(run[len(run)-1].serial)
	for _, cm := range cs {
		if c.fail[cm.serial] != nil {
			for _, cm := range cs {
				deliver([]*commit{cm}, c.fail[cm.serial])
			}
			return
		}
	}
	deliver(cs, nil)
}

// release opens the gate.
func (c *gateCommitter) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.open = true
	c.releaseLocked()
}

func (c *gateCommitter) Commit(g *wal.Group) error { return waitStable(c, simtime.Wall, g) }
func (c *gateCommitter) Close() error              { return nil }

func newGateEngine(t *testing.T, fail map[uint64]error) (*Engine, *gateCommitter) {
	t.Helper()
	db := store.New()
	for i := 0; i < 10; i++ {
		db.Put(store.ObjectID(i), []byte{byte(i)})
	}
	gate := newGate(fail)
	// Room for every commit a test holds behind the gate.
	cfg := Config{Workers: 1, Overload: sched.OverloadConfig{MaxActive: 128, MinActive: 128}}
	e := NewEngine(cfg, db, gate, LogDisk)
	t.Cleanup(e.Stop)
	return e, gate
}

func bump(id store.ObjectID) Request {
	return Request{Deadline: 10 * time.Second, Do: func(tx *Tx) error {
		v, err := tx.Read(id)
		if err != nil {
			return err
		}
		return tx.Write(id, []byte{v[0] + 1})
	}}
}

func read(id store.ObjectID) Request {
	return Request{Deadline: 10 * time.Second, ReadOnly: true, Do: func(tx *Tx) error {
		_, err := tx.ReadView(id)
		return err
	}}
}

// TestSubmitFreesWorkerBeforeStable: with one executor slot and a log
// that never becomes stable until the test says so, two updates still
// both validate — the slot is not held across the log wait. A read of an
// object they wrote waits for their commits; a read of anything else is
// ready at once. Execute waits for durability.
func TestSubmitFreesWorkerBeforeStable(t *testing.T) {
	e, gate := newGateEngine(t, nil)

	r1, err := e.Submit(bump(1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Submit(bump(2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Serial() != 1 || r2.Serial() != 2 || r1.Ready() || r2.Ready() {
		t.Fatalf("updates: serials %d,%d ready %v,%v; want 1,2 both held", r1.Serial(), r2.Serial(), r1.Ready(), r2.Ready())
	}

	rd, err := e.Submit(read(2))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Serial() != 2 || rd.Ready() {
		t.Fatalf("read of a pending write: serial %d ready %v, want 2 held", rd.Serial(), rd.Ready())
	}
	other, err := e.Submit(read(5))
	if err != nil {
		t.Fatal(err)
	}
	if !other.Ready() {
		t.Fatalf("read of loaded state held on serial %d", other.Serial())
	}

	executed := make(chan error, 1)
	go func() { executed <- e.Execute(bump(3)) }()
	held := make(chan error, 1)
	go func() { held <- rd.Wait() }()
	waitFor(t, "the read to park on the watermark", func() bool { return e.ReplyHolds() == 1 })
	select {
	case err := <-executed:
		t.Fatalf("Execute returned %v before its commit was stable", err)
	case err := <-held:
		t.Fatalf("held read released (%v) before the commit it read", err)
	case <-time.After(20 * time.Millisecond):
	}

	gate.release()
	if err := <-executed; err != nil {
		t.Fatal(err)
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if got := e.DurableThrough(); got != 3 {
		t.Fatalf("DurableThrough = %d, want 3", got)
	}
	if got := e.ReplyHolds(); got != 1 {
		t.Fatalf("ReplyHolds = %d, want 1", got)
	}
}

// TestFailedCommitStopsWatermark: a commit that cannot be made stable
// fails its own result and every result that depends on it. Once the
// watermark has stopped, a later update is refused before validation, so
// it installs nothing; the failure is reported once.
func TestFailedCommitStopsWatermark(t *testing.T) {
	e, gate := newGateEngine(t, map[uint64]error{2: errors.New("disk gone")})
	reported := make(chan error, 4)
	e.onCommitFailure = func(err error) { reported <- err }
	gate.release()
	if err := e.Execute(bump(1)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []store.ObjectID{2, 3} {
		if err := e.Execute(bump(id)); !errors.Is(err, ErrNodeFailure) {
			t.Fatalf("update %d after the failed commit: %v, want ErrNodeFailure", id, err)
		}
	}
	if got := e.DurableThrough(); got != 1 {
		t.Fatalf("DurableThrough = %d, want 1", got)
	}
	if v, _ := e.DB().Get(3); v[0] != 3 {
		t.Fatalf("refused update installed %d at object 3", v[0])
	}
	if err := e.Execute(read(2)); !errors.Is(err, ErrNodeFailure) {
		t.Fatalf("read of the failed commit's write: %v, want ErrNodeFailure", err)
	}
	for _, id := range []store.ObjectID{1, 3} {
		if err := e.Execute(read(id)); err != nil {
			t.Fatalf("read of durable state at %d: %v", id, err)
		}
	}
	if err := <-reported; !errors.Is(err, ErrNodeFailure) {
		t.Fatalf("reported %v, want ErrNodeFailure", err)
	}
	if len(reported) != 0 {
		t.Fatalf("failure reported %d more times", len(reported))
	}
}

// TestCommitWaitsOutMirrorSwap: a commit whose mirror session closed
// under it is not failed while the node installs the next commit path,
// however long that takes (a rejoining mirror's state transfer snapshots
// the whole database first). It completes on the new path, and the
// engine keeps committing.
func TestCommitWaitsOutMirrorSwap(t *testing.T) {
	e, _ := newGateEngine(t, nil)
	e.SetCommitter(newGate(nil), LogShip)
	r, err := e.Submit(bump(1))
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- r.Wait() }()
	select {
	case err := <-waited:
		t.Fatalf("commit settled (%v) with no commit path installed", err)
	case <-time.After(50 * time.Millisecond):
	}

	e.SetCommitter(newNoWaitCommitter(), LogShip)
	if err := <-waited; err != nil {
		t.Fatalf("commit after the swap: %v", err)
	}
	if err := e.Execute(bump(2)); err != nil {
		t.Fatalf("update after the swap: %v", err)
	}
	if got := e.DurableThrough(); got != 2 {
		t.Fatalf("DurableThrough = %d, want 2", got)
	}
}

// TestCohortCountsOneAdvance: k commits held behind a gated committer and
// then released by one advance count as one cohort of k.
func TestCohortCountsOneAdvance(t *testing.T) {
	const k = 5
	e, gate := newGateEngine(t, nil)
	var last Release
	for i := 0; i < k; i++ {
		r, err := e.Submit(bump(store.ObjectID(i)))
		if err != nil {
			t.Fatal(err)
		}
		last = r
	}
	gate.release()
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	if n, m := e.CommitCohorts().Count(), e.CommitCohorts().Max(); n != 1 || m != k {
		t.Fatalf("cohorts: %d advances, largest %d; want one of %d", n, m, k)
	}
}

// TestHeldCommitsStartNoGoroutines: validated commits waiting for a
// stable log cost no goroutine each. 64 of them held behind a gate grow
// the goroutine count by far fewer than 64.
func TestHeldCommitsStartNoGoroutines(t *testing.T) {
	const held = 64
	e, gate := newGateEngine(t, nil)
	t.Cleanup(gate.release) // before the engine's Stop, which drains
	before := runtime.NumGoroutine()
	rels := make([]Release, 0, held)
	for i := 0; i < held; i++ {
		r, err := e.Submit(bump(store.ObjectID(i % 10)))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	if grew := runtime.NumGoroutine() - before; grew >= held/4 {
		t.Fatalf("%d held commits started %d goroutines", held, grew)
	}
	if rels[held-1].Ready() {
		t.Fatal("a commit behind the gate is already stable")
	}
	gate.release()
	for _, r := range rels {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.DurableThrough(); got != held {
		t.Fatalf("DurableThrough = %d, want %d", got, held)
	}
}
