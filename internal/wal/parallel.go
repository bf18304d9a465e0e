package wal

import (
	"errors"
	"io"
	"runtime"
	"sync"

	"repro/internal/store"
)

// ParallelApplier applies committed transaction groups to a store on a
// worker pool while preserving the only order that matters for
// correctness: groups that write the same object apply in submission
// order. Groups with disjoint write sets commute on the store (they
// touch different map entries and tombstones), so they may apply
// concurrently — this is what lets a mirror's live apply path and crash
// recovery use the lock-striped store's parallelism instead of replaying
// one group at a time.
//
// The scheduler tracks the last submitted, not-yet-applied writer task
// per object. Submitting a group adds one dependency edge per write-set
// member whose last writer is still outstanding; a task dispatches to
// the pool when its dependency count reaches zero. Because edges only
// point from earlier to later submissions the graph is acyclic, and the
// earliest unfinished task is always runnable — the pipeline cannot
// stall.
//
// Submission order is the caller's serialization order (validation order
// for a mirror, commit-record order for recovery), so the final store
// contents are bit-identical to a sequential replay: conflicting groups
// apply in the same order as sequentially, and non-conflicting groups
// commute. Mid-stream the store is NOT a serial-order prefix — group 7
// may be visible while group 5 is still in flight — so callers that need
// a consistent point (takeover, state transfer, checkpoint) must call
// Wait or Close first.
//
// Apply, Wait and Close must be called from a single goroutine; the
// worker pool is internal.
type ParallelApplier struct {
	db      *store.Store
	tsGuard bool

	mu         sync.Mutex
	cond       sync.Cond // queue became non-empty, or closing
	idle       sync.Cond // inflight hit zero
	queue      []*applyTask
	lastWriter map[store.ObjectID]*applyTask
	inflight   int // submitted but not yet fully applied
	closing    bool

	// stats, guarded by mu
	applied       int
	writesApplied int
	maxSerial     uint64
	maxCommitTS   uint64

	wg sync.WaitGroup
}

// applyTask is one submitted group plus its place in the conflict graph.
type applyTask struct {
	g    *Group
	deps int          // outstanding predecessor edges; guarded by ParallelApplier.mu
	kids []*applyTask // tasks holding an edge from this one
}

// maxApplierInflight bounds how many groups may be submitted ahead of
// the workers before Apply blocks — backpressure so that recovering a
// multi-gigabyte log does not buffer it wholesale in task objects.
const maxApplierInflight = 1024

// NewParallelApplier returns an applier over db with the given worker
// count (values < 1 are raised to 1; a single worker degenerates to an
// asynchronous sequential applier). tsGuard selects Recover's per-write
// timestamp check — skip a write whose object already carries a newer
// write timestamp — which replaying a transient-mode log needs because
// such a log may hold write-write conflicting groups out of timestamp
// order. A mirror applying a live stream in validation order passes
// false and gets the atomic ApplyGroup write phase instead.
func NewParallelApplier(db *store.Store, workers int, tsGuard bool) *ParallelApplier {
	if workers < 1 {
		workers = 1
	}
	p := &ParallelApplier{
		db:         db,
		tsGuard:    tsGuard,
		lastWriter: make(map[store.ObjectID]*applyTask),
	}
	p.cond.L = &p.mu
	p.idle.L = &p.mu
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// DefaultRecoverWorkers is the worker count used when a caller passes 0:
// one per available CPU.
func DefaultRecoverWorkers() int { return runtime.GOMAXPROCS(0) }

// Apply submits one committed group. It returns once the group is
// scheduled (not applied); conflicting groups apply in submission order.
// Apply blocks only when the backpressure bound is full.
func (p *ParallelApplier) Apply(g *Group) {
	t := &applyTask{g: g}
	p.mu.Lock()
	for p.inflight >= maxApplierInflight {
		p.idle.Wait()
	}
	p.inflight++
	for _, w := range g.Writes {
		if prev := p.lastWriter[w.ObjectID]; prev != nil && prev != t {
			prev.kids = append(prev.kids, t)
			t.deps++
		}
		p.lastWriter[w.ObjectID] = t
	}
	if t.deps == 0 {
		p.queue = append(p.queue, t)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Wait blocks until every submitted group has been applied. The store is
// then a consistent serial-order prefix again.
func (p *ParallelApplier) Wait() {
	p.mu.Lock()
	for p.inflight > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// Close drains all submitted groups and stops the workers. The applier
// must not be used afterwards.
func (p *ParallelApplier) Close() {
	p.mu.Lock()
	for p.inflight > 0 {
		p.idle.Wait()
	}
	p.closing = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Applied reports how many groups have been fully applied so far.
func (p *ParallelApplier) Applied() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.applied
}

// WritesApplied reports how many after images (and tombstones) have been
// installed; with the timestamp guard, skipped stale writes are not
// counted — matching Recover's accounting.
func (p *ParallelApplier) WritesApplied() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writesApplied
}

// MaxSerial reports the largest SerialOrder applied.
func (p *ParallelApplier) MaxSerial() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxSerial
}

// MaxCommitTS reports the largest commit timestamp applied.
func (p *ParallelApplier) MaxCommitTS() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxCommitTS
}

func (p *ParallelApplier) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closing {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()

		n := p.applyGroup(t.g)
		p.complete(t, n)
	}
}

// applyGroup installs one group's writes; it runs without the scheduler
// lock. Returns the number of writes actually installed.
func (p *ParallelApplier) applyGroup(g *Group) int {
	ts, serial := g.Commit.CommitTS, g.SerialOrder()
	if p.tsGuard {
		applied := 0
		for _, w := range g.Writes {
			if w.Type != TypeDelete {
				if _, wts, ok := p.db.Timestamps(w.ObjectID); ok && wts > ts {
					continue
				}
			}
			applyRecord(p.db, w, ts, serial)
			applied++
		}
		return applied
	}
	ops := make([]store.Op, 0, len(g.Writes))
	for _, w := range g.Writes {
		ops = append(ops, store.Op{ID: w.ObjectID, Value: w.AfterImage, Delete: w.Type == TypeDelete, Serial: serial})
	}
	p.db.ApplyGroup(ops, ts)
	return len(ops)
}

// complete retires a finished task: releases its conflict-graph edges,
// dispatches newly runnable successors and folds the group into the
// stats.
func (p *ParallelApplier) complete(t *applyTask, writes int) {
	p.mu.Lock()
	for _, w := range t.g.Writes {
		if p.lastWriter[w.ObjectID] == t {
			delete(p.lastWriter, w.ObjectID)
		}
	}
	signalled := false
	for _, k := range t.kids {
		k.deps--
		if k.deps == 0 {
			p.queue = append(p.queue, k)
			signalled = true
		}
	}
	if signalled {
		p.cond.Broadcast()
	}
	p.applied++
	p.writesApplied += writes
	if t.g.Commit.SerialOrder > p.maxSerial {
		p.maxSerial = t.g.Commit.SerialOrder
	}
	if t.g.Commit.CommitTS > p.maxCommitTS {
		p.maxCommitTS = t.g.Commit.CommitTS
	}
	p.inflight--
	if p.inflight == 0 || p.inflight == maxApplierInflight-1 {
		p.idle.Broadcast()
	}
	p.mu.Unlock()
}

// ParallelRecover is Recover with the apply phase fanned out over a
// conflict-aware worker pool: record decode and commit-group assembly
// stay a single ordered pass (exactly Recover's buffering semantics),
// but each committed group is handed to a ParallelApplier, so groups
// with disjoint write sets install concurrently while per-object order —
// and therefore the final database — is bit-identical to Recover.
// workers <= 1 falls back to the sequential pass; workers == 0 uses one
// worker per CPU via DefaultRecoverWorkers.
func ParallelRecover(r io.Reader, db *store.Store, workers int) (RecoverStats, error) {
	return ParallelRecoverSuffix(r, db, workers, nil)
}

// ParallelRecoverSuffix is ParallelRecover with a fuzzy-checkpoint
// watermark filter (see RecoverSuffix): writes whose group serial is at
// or below their stripe's watermark are dropped at group assembly, before
// the conflict graph ever sees them, so a mostly-covered log suffix
// costs decode time but no apply contention.
func ParallelRecoverSuffix(r io.Reader, db *store.Store, workers int, wm *StripeWatermarks) (RecoverStats, error) {
	if workers == 0 {
		workers = DefaultRecoverWorkers()
	}
	if workers <= 1 {
		return RecoverSuffix(r, db, wm)
	}
	var st RecoverStats
	ap := NewParallelApplier(db, workers, true)
	buffered := 0
	pending := make(map[uint64][]*Record)
	err := func() error {
		for {
			rec, err := Decode(r)
			if err != nil {
				switch {
				case err == io.EOF:
					return nil
				case err == io.ErrUnexpectedEOF || errors.Is(err, ErrCorrupt):
					st.Truncated = true
					return nil
				default:
					return err
				}
			}
			switch rec.Type {
			case TypeWrite, TypeDelete:
				pending[uint64(rec.TxnID)] = append(pending[uint64(rec.TxnID)], rec)
				buffered++
				if buffered > st.PeakBuffered {
					st.PeakBuffered = buffered
				}
			case TypeAbort:
				buffered -= len(pending[uint64(rec.TxnID)])
				delete(pending, uint64(rec.TxnID))
			case TypeCommit:
				g := &Group{Writes: pending[uint64(rec.TxnID)], Commit: rec}
				buffered -= len(g.Writes)
				delete(pending, uint64(rec.TxnID))
				if wm != nil {
					kept := g.Writes[:0]
					for _, w := range g.Writes {
						if rec.SerialOrder <= wm.For(w.ObjectID) {
							st.WritesSkipped++
							continue
						}
						kept = append(kept, w)
					}
					g.Writes = kept
				}
				// Apply even when every write was filtered: the commit
				// still advances the applier's MaxSerial bookkeeping.
				ap.Apply(g)
			case TypeHeartbeat:
				// ignore
			}
		}
	}()
	ap.Close()
	st.Discarded = len(pending)
	st.Applied = ap.Applied()
	st.WritesApplied = ap.WritesApplied()
	if s := ap.MaxSerial(); s > st.LastSerial {
		st.LastSerial = s
	}
	return st, err
}
