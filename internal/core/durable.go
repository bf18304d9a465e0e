package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// durableMark is the engine's durable-through watermark: the largest
// serial S such that the commit of every serial ≤ S is stable (acked by
// the mirror, synced to disk, or needing no log at all). The committer
// keeps its commits in serial order and advances the watermark once per
// contiguous run it makes stable; the watermark itself only moves up.
// The first serial whose commit fails stops the watermark for good:
// nothing at or above it can ever be reported durable.
//
// Ordering and persistence stay apart: validation decides the serial,
// and only this watermark decides when a result that depends on it may
// be shown to anyone.
type durableMark struct {
	through atomic.Uint64
	failed  atomic.Uint64 // lowest serial whose commit failed; 0 if none (written under mu)

	mu      sync.Mutex
	cond    *sync.Cond      // wakes waiters when through moves or a commit fails
	failErr error           // what waiters at or above failed return
	cohorts metrics.IntDist // serials covered by each advance
}

func newDurableMark() *durableMark {
	d := &durableMark{}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// seed moves the watermark to serial when a node resumes from an applied
// log position: everything up to it is already stable elsewhere.
func (d *durableMark) seed(serial uint64) {
	d.mu.Lock()
	if serial > d.through.Load() {
		d.through.Store(serial)
	}
	d.mu.Unlock()
}

// advance moves the watermark up to serial, which the caller has seen
// stable along with every serial below it, and records the cohort.
func (d *durableMark) advance(serial uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.failed.Load(); f != 0 {
		serial = min(serial, f-1) // the watermark never passes a failed serial
	}
	if through := d.through.Load(); serial > through {
		d.cohorts.Observe(int(serial - through))
		d.through.Store(serial)
		d.cond.Broadcast()
	}
}

// fail records that serial's commit failed with err. It reports whether
// this is the first failure, and the error waiters now see.
func (d *durableMark) fail(serial uint64, err error) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.failed.Load()
	if f == 0 || serial < f {
		d.failed.Store(serial)
		d.failErr = fmt.Errorf("%w: serial %d: %v", ErrNodeFailure, serial, err)
	}
	d.cond.Broadcast()
	return f == 0, d.failErr
}

// broken reports the failure that stopped the watermark, nil if none. The
// common no-failure case is one atomic load.
func (d *durableMark) broken() error {
	if d.failed.Load() == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failErr
}

// wait blocks until the watermark reaches serial, or fails if the commit
// of serial or of one below it failed.
func (d *durableMark) wait(serial uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for serial > d.through.Load() {
		if f := d.failed.Load(); f != 0 && serial >= f {
			return d.failErr
		}
		d.cond.Wait()
	}
	return nil
}

// Release is the durability condition a submitted transaction's result
// must meet before anyone may see it: the engine's watermark has reached
// the serial the result depends on. For a commit that is its own serial;
// for a read, the highest serial among the versions it observed, so a
// reply never exposes a write whose commit is not yet stable. The zero
// Release is always ready.
type Release struct {
	e      *Engine
	serial uint64
	read   bool // the serial was observed by a read, not taken by a commit
}

// Serial reports the serial the result waits for.
func (r Release) Serial() uint64 { return r.serial }

// Ready reports, with one atomic load, whether the result may be shown
// now.
func (r Release) Ready() bool { return r.e == nil || r.serial <= r.e.durable.through.Load() }

// Wait blocks until the result may be shown. It fails with
// ErrNodeFailure if the commit the result depends on, or one validated
// before it, failed to become stable. A read that has to park here
// counts as one reply hold.
func (r Release) Wait() error {
	if r.Ready() {
		return nil
	}
	if r.read {
		r.e.replyHolds.Add(1)
	}
	return r.e.durable.wait(r.serial)
}
