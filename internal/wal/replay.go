package wal

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/store"
)

// RecoverStats summarizes a replay: a recovery pass, or the live stream
// a mirror has applied so far.
type RecoverStats struct {
	// Applied is the number of committed transactions replayed.
	Applied int
	// WritesApplied is the number of after images and deletions handed
	// to the store after the watermark filter. The store still keeps the
	// version with the larger commit timestamp, so a stale write in an
	// out-of-order log counts here but changes nothing.
	WritesApplied int
	// Discarded is the number of transactions whose writes were present
	// but that had no commit record (aborted by the failure).
	Discarded int
	// LastSerial is the largest validation order replayed, zero if none.
	LastSerial uint64
	// MaxCommitTS is the largest commit timestamp replayed; a node that
	// serves after the replay seeds its concurrency controller above it.
	MaxCommitTS uint64
	// Truncated reports whether the log ended mid-record or with a
	// corrupt tail — expected after a crash; everything before the
	// damage has been applied.
	Truncated bool
	// PeakBuffered is the largest number of write records buffered
	// while waiting for a commit record. A log stored in grouped form
	// needs only one transaction's worth; an interleaved log can force
	// the replay to hold much more.
	PeakBuffered int
	// WritesSkipped counts writes dropped by a stripe-watermark filter:
	// their group's serial was at or below the watermark of the object's
	// stripe, so the checkpoint already holds them.
	WritesSkipped int
}

// DefaultRecoverWorkers is the replay pool size: one worker per
// available CPU.
func DefaultRecoverWorkers() int { return runtime.GOMAXPROCS(0) }

// Recover replays a stored redo log into db on DefaultRecoverWorkers
// workers (see Replay).
func Recover(r io.Reader, db *store.Store) (RecoverStats, error) {
	return Replay(r, NewReplayer(db, DefaultRecoverWorkers()))
}

// Replay is the one decode loop: it feeds every record of a stored log
// to rp, then closes rp and returns its statistics. Transactions with no
// commit record are discarded. A truncated or corrupt tail ends the pass
// cleanly (Truncated is set); any other read error is returned.
func Replay(r io.Reader, rp *Replayer) (RecoverStats, error) {
	var err error
	truncated := false
	for {
		rec, derr := Decode(r)
		if derr == nil {
			_, derr = rp.Add(rec)
		}
		if derr == io.EOF {
			break
		}
		if derr == io.ErrUnexpectedEOF || errors.Is(derr, ErrCorrupt) {
			truncated = true
			break
		}
		if derr != nil {
			err = derr
			break
		}
	}
	rp.Close()
	st := rp.Stats()
	st.Truncated = truncated
	return st, err
}

// grouper buffers write records per transaction until the commit record
// completes the group. It is the grouping step of every replay; an abort
// record drops the transaction's writes and heartbeats are ignored.
type grouper struct {
	pending  map[uint64][]*Record // txn id → buffered writes
	buffered int                  // write records currently buffered
	peak     int                  // largest buffered ever reached
}

func (g *grouper) add(rec *Record) (*Group, error) {
	id := uint64(rec.TxnID)
	switch rec.Type {
	case TypeHeartbeat:
		return nil, nil
	case TypeWrite, TypeDelete:
		if g.pending == nil {
			g.pending = make(map[uint64][]*Record)
		}
		g.pending[id] = append(g.pending[id], rec)
		g.buffered++
		g.peak = max(g.peak, g.buffered)
		return nil, nil
	case TypeAbort:
		g.buffered -= len(g.pending[id])
		delete(g.pending, id)
		return nil, nil
	case TypeCommit:
		grp := &Group{Writes: g.pending[id], Commit: rec}
		g.buffered -= len(grp.Writes)
		delete(g.pending, id)
		return grp, nil
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrCorrupt, rec.Type)
	}
}

// discard drops every transaction still waiting for its commit record
// and reports how many there were.
func (g *grouper) discard() int {
	n := len(g.pending)
	clear(g.pending)
	g.buffered = 0
	return n
}

// Replayer is the one redo operator, shared by crash recovery, fuzzy
// checkpoint suffix replay and the mirror's live apply, and the one place
// a database image enters the store (Install). It has three steps:
//
//   - Grouping: write records are buffered per transaction; the commit
//     record completes the group (so nothing is ever undone), an abort
//     record drops it, and Close discards what never committed. A
//     checkpoint group is not applied but installed.
//   - Filter: after Install, a write whose group serial is at or below
//     the watermark of its object's stripe is dropped (the checkpoint
//     holds it). The commit still counts.
//   - Apply: each group goes through store.ApplyGroup on a conflict-aware
//     worker pool. Groups that write the same object apply in the order
//     they were added; groups with disjoint write sets commute, so they
//     may apply concurrently. The pool tracks the last unfinished writer
//     of each object; a group waits on one edge per such writer and
//     dispatches when its count reaches zero. Edges only point forward,
//     so the earliest unfinished group is always runnable.
//
// The drained store is therefore bit-identical to a sequential replay of
// the same groups, at any worker count. Mid-stream it is not a prefix —
// group 7 may be visible while group 5 is in flight — so a caller that
// needs a consistent point (takeover, state transfer) calls Wait.
//
// Add, Install, Wait, Restart and Close must be called from one
// goroutine; Stats may be called from any.
type Replayer struct {
	db    *store.Store
	wm    *StripeWatermarks // the installed checkpoint's filter; nil before Install
	wmTop uint64            // wm.Max(): a group above it passes the filter whole
	grp   grouper
	next  uint64 // live stream: the serial the next commit must carry; 0 = unchecked

	mu         sync.Mutex
	cond       sync.Cond // queue became non-empty, or closing
	idle       sync.Cond // inflight fell to zero or below the bound
	queue      []*applyTask
	lastWriter map[store.ObjectID]*applyTask
	inflight   int // scheduled but not yet applied
	closing    bool
	st         RecoverStats

	wg sync.WaitGroup
}

// applyTask is one scheduled group plus its place in the conflict graph.
type applyTask struct {
	writes     []*Record // the group's writes that passed the filter
	serial, ts uint64
	deps       int          // outstanding predecessor edges; guarded by Replayer.mu
	kids       []*applyTask // tasks holding an edge from this one
}

// maxApplierInflight bounds how many groups may be scheduled ahead of
// the workers before Add blocks, so replaying a multi-gigabyte log does
// not buffer it wholesale.
const maxApplierInflight = 1024

// NewReplayer returns a replayer into db with a pool of workers workers
// (at least one).
func NewReplayer(db *store.Store, workers int) *Replayer {
	r := &Replayer{db: db, lastWriter: make(map[store.ObjectID]*applyTask)}
	r.cond.L = &r.mu
	r.idle.L = &r.mu
	workers = max(workers, 1)
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r
}

// Add feeds one record. When it completes a group, the group is
// scheduled for apply and returned; Add blocks only while the pool is
// full. A checkpoint group in a stored log is installed (Install) and
// returned: it is a reset barrier, and the log replays from there as the
// history the image starts. After Restart, a commit must carry the next
// serial of the stream: any other serial, or a checkpoint group, is an
// error wrapping ErrCorrupt, and its group is neither returned nor
// applied. An unknown record type is an error wrapping ErrCorrupt too.
func (r *Replayer) Add(rec *Record) (*Group, error) {
	g, err := r.grp.add(rec)
	if g == nil {
		return nil, err
	}
	if g.Commit.TxnID == checkpointTxnID {
		if r.next != 0 {
			return nil, fmt.Errorf("%w: checkpoint group in a live stream", ErrCorrupt)
		}
		ck, err := checkpointOf(g)
		if err != nil {
			return nil, err
		}
		r.Install(ck)
		return g, nil
	}
	if r.next != 0 {
		if g.SerialOrder() != r.next {
			return nil, fmt.Errorf("%w: commit serial %d, want %d", ErrCorrupt, g.SerialOrder(), r.next)
		}
		r.next++
	}
	r.schedule(g)
	return g, nil
}

// Install puts the database image ck in the store in place of
// everything replayed so far: it waits for the groups in flight, discards
// pending transactions, bulk-loads the image, makes its watermarks the
// filter (its stripes may already hold groups above a mark, and their
// writes there are skipped) and resets LastSerial to ck's serial and
// MaxCommitTS to its largest write timestamp. The image is not a
// transaction: Applied does not count it.
func (r *Replayer) Install(ck *Checkpoint) {
	r.Wait()
	n := r.grp.discard()
	r.db.LoadSnapshot(ck.Snapshot)
	r.setFilter(ck.Watermarks)
	var ts uint64
	for _, rec := range ck.Snapshot {
		ts = max(ts, rec.WriteTS)
	}
	r.mu.Lock()
	r.st.Discarded += n
	r.st.LastSerial = ck.LastSerial
	r.st.MaxCommitTS = ts
	r.mu.Unlock()
}

// setFilter makes wm the watermark filter.
func (r *Replayer) setFilter(wm *StripeWatermarks) { r.wm, r.wmTop = wm, wm.Max() }

// Restart positions the replayer on a live stream whose state up to
// serial is already in the store (a session resumes there, or Install
// just put a state transfer in): pending transactions are discarded,
// LastSerial becomes serial, MaxCommitTS rises to at least maxCommitTS,
// and from now on commits must arrive as serial+1, serial+2, …
func (r *Replayer) Restart(serial, maxCommitTS uint64) {
	n := r.grp.discard()
	r.next = serial + 1
	r.mu.Lock()
	r.st.Discarded += n
	r.st.LastSerial = serial
	r.st.MaxCommitTS = max(r.st.MaxCommitTS, maxCommitTS)
	r.mu.Unlock()
}

// Stats reports the groups scheduled so far; once Wait or Close has
// returned they are all applied.
func (r *Replayer) Stats() RecoverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// Wait blocks until every scheduled group has been applied. The store is
// then a consistent serial-order prefix again.
func (r *Replayer) Wait() {
	r.mu.Lock()
	for r.inflight > 0 {
		r.idle.Wait()
	}
	r.mu.Unlock()
}

// Close drains the pool, stops the workers and discards transactions that
// never committed (counted in Discarded). The replayer must not be fed
// afterwards; Stats stays valid.
func (r *Replayer) Close() {
	n := r.grp.discard()
	r.mu.Lock()
	for r.inflight > 0 {
		r.idle.Wait()
	}
	r.st.Discarded += n
	r.st.PeakBuffered = r.grp.peak
	r.closing = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// schedule filters a completed group and adds it to the conflict graph.
func (r *Replayer) schedule(g *Group) {
	t := &applyTask{writes: g.Writes, serial: g.SerialOrder(), ts: g.Commit.CommitTS}
	if r.wm != nil && t.serial <= r.wmTop {
		t.writes = make([]*Record, 0, len(g.Writes))
		for _, w := range g.Writes {
			if t.serial > r.wm.For(w.ObjectID) {
				t.writes = append(t.writes, w)
			}
		}
	}
	r.mu.Lock()
	r.st.Applied++
	r.st.WritesApplied += len(t.writes)
	r.st.WritesSkipped += len(g.Writes) - len(t.writes)
	r.st.LastSerial = max(r.st.LastSerial, t.serial)
	r.st.MaxCommitTS = max(r.st.MaxCommitTS, t.ts)
	r.st.PeakBuffered = r.grp.peak
	if len(t.writes) == 0 {
		r.mu.Unlock()
		return
	}
	for r.inflight >= maxApplierInflight {
		r.idle.Wait()
	}
	r.inflight++
	for _, w := range t.writes {
		if prev := r.lastWriter[w.ObjectID]; prev != nil && prev != t {
			prev.kids = append(prev.kids, t)
			t.deps++
		}
		r.lastWriter[w.ObjectID] = t
	}
	if t.deps == 0 {
		r.queue = append(r.queue, t)
		r.cond.Signal()
	}
	r.mu.Unlock()
}

// worker applies runnable tasks; it is the one place a log record
// becomes a store op.
func (r *Replayer) worker() {
	defer r.wg.Done()
	var ops []store.Op // reused: ApplyGroup keeps no reference to the slice
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closing {
			r.cond.Wait()
		}
		if len(r.queue) == 0 {
			r.mu.Unlock()
			return
		}
		t := r.queue[0]
		r.queue = r.queue[1:]
		r.mu.Unlock()

		ops = ops[:0]
		for _, w := range t.writes {
			ops = append(ops, store.Op{ID: w.ObjectID, Value: w.AfterImage, Delete: w.Type == TypeDelete, Serial: t.serial})
		}
		r.db.ApplyGroup(ops, t.ts)
		r.complete(t)
	}
}

// complete retires an applied task: it releases the task's conflict-graph
// edges and dispatches successors that became runnable.
func (r *Replayer) complete(t *applyTask) {
	r.mu.Lock()
	for _, w := range t.writes {
		if r.lastWriter[w.ObjectID] == t {
			delete(r.lastWriter, w.ObjectID)
		}
	}
	released := false
	for _, k := range t.kids {
		if k.deps--; k.deps == 0 {
			r.queue = append(r.queue, k)
			released = true
		}
	}
	if released {
		r.cond.Broadcast()
	}
	r.inflight--
	if r.inflight == 0 || r.inflight == maxApplierInflight-1 {
		r.idle.Broadcast()
	}
	r.mu.Unlock()
}
