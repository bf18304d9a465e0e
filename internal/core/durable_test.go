package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wal"
)

func TestDurableMarkContiguousPrefix(t *testing.T) {
	d := newDurableMark()
	d.seed(10)
	if got := d.through.Load(); got != 10 {
		t.Fatalf("seeded through = %d", got)
	}
	waited := make(chan error, 1)
	go func() { waited <- d.wait(13) }()

	d.settle(13) // above a gap: waits in ahead
	d.settle(11)
	if got := d.through.Load(); got != 11 {
		t.Fatalf("through = %d after 11 and 13 settled, want 11", got)
	}
	select {
	case err := <-waited:
		t.Fatalf("wait(13) returned %v with 12 unsettled", err)
	case <-time.After(20 * time.Millisecond):
	}
	d.settle(12)
	if got := d.through.Load(); got != 13 {
		t.Fatalf("through = %d after the gap filled, want 13", got)
	}
	if err := <-waited; err != nil {
		t.Fatalf("wait(13): %v", err)
	}

	boom := errors.New("boom")
	d.fail(15, boom)
	d.settle(16) // behind the failure: never durable
	d.settle(14)
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
	if len(d.ahead) != 0 {
		t.Fatalf("ahead holds %d serials the watermark can never reach", len(d.ahead))
	}
}

// gateCommitter holds every commit until open is closed, then fails the
// serials listed in fail.
type gateCommitter struct {
	open chan struct{}
	fail map[uint64]error
}

func (c *gateCommitter) Commit(g *wal.Group) error {
	<-c.open
	return c.fail[g.SerialOrder()]
}

func (c *gateCommitter) Close() error { return nil }

func newGateEngine(t *testing.T, fail map[uint64]error) (*Engine, *gateCommitter) {
	t.Helper()
	db := store.New()
	for i := 0; i < 10; i++ {
		db.Put(store.ObjectID(i), []byte{byte(i)})
	}
	gate := &gateCommitter{open: make(chan struct{}), fail: fail}
	e := NewEngine(Config{Workers: 1}, db, gate, LogDisk)
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

// TestSubmitFreesWorkerBeforeStable: with one engine worker and a log
// that never becomes stable until the test says so, two updates still
// both validate — the worker does not sit in the log wait. A read of an
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

	close(gate.open)
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
	close(gate.open)
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
	e.SetCommitter(downCommitter{}, LogShip)
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

	e.SetCommitter(nullCommitter{}, LogShip)
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
