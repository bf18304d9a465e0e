package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Errors surfaced to transaction submitters.
var (
	// ErrOverload: the overload manager denied admission.
	ErrOverload = errors.New("core: admission denied by overload manager")
	// ErrDeadline: a firm deadline expired before commit.
	ErrDeadline = errors.New("core: firm deadline expired")
	// ErrConflict: concurrency control aborted the transaction after
	// exhausting its restarts.
	ErrConflict = errors.New("core: concurrency-control conflict")
	// ErrNodeFailure: the node failed mid-commit.
	ErrNodeFailure = errors.New("core: node failure during commit")
)

// internal restart signal raised by Tx operations on doomed transactions.
var errRestart = errors.New("core: restart requested")

// Request is one client transaction to execute.
type Request struct {
	// Class is the criticality class (default Firm).
	Class txn.Class
	// Deadline is the relative firm/soft deadline; ignored for
	// NonRealTime requests. Zero means NoDeadline.
	Deadline time.Duration
	// Criticality orders transactions of equal class under overload.
	Criticality int
	// ReadOnly declares that Do stages no writes or deletes. A declared
	// read-only transaction skips per-read conflict registration and
	// commits through the controller's snapshot fast path — no serial
	// ticket, no log record, no mirror round trip. The declaration is a
	// hint, not a contract: a body that writes anyway is transparently
	// demoted and restarted through the fully registered path (costing
	// one restart), never executed incorrectly.
	ReadOnly bool
	// Do is the transaction body. It may run several times (restarts);
	// it must be a pure function of the Tx reads.
	Do func(*Tx) error
}

// Tx is the operation surface a transaction body sees. Reads and writes
// are transactional: writes are deferred to the private workspace and
// reads see them (read-your-writes).
type Tx struct {
	e *Engine
	t *txn.Transaction
}

// ID reports the transaction id.
func (x *Tx) ID() txn.ID { return x.t.ID }

// Restarts reports how many times this transaction has been restarted.
func (x *Tx) Restarts() int { return x.t.Restarts }

// Read returns the value of id. It fails with errRestart (internally
// retried) when the transaction has been doomed by a conflicting commit,
// with ErrDeadline past a firm deadline, and reports missing objects.
func (x *Tx) Read(id store.ObjectID) ([]byte, error) {
	v, err := x.ReadView(id)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(v), nil
}

// ReadView is Read without the defensive copy: the returned slice is
// borrowed from the database (or from this transaction's own deferred
// write) and MUST NOT be modified, nor used after the transaction body
// stages another write to the same object or returns. It exists for
// decode-and-discard lookups on the hot path — a number translation that
// parses the routing entry and drops the bytes pays no per-read
// allocation. Use Read when in doubt.
func (x *Tx) ReadView(id store.ObjectID) ([]byte, error) {
	if err := x.check(); err != nil {
		return nil, err
	}
	start := x.e.clock.Now()
	v, ok := x.t.ReadView(x.e.db, id)
	x.e.ctl.ObserveReadLatency(x.e.clock.Now().Sub(start))
	if !ok {
		return nil, fmt.Errorf("core: object %d does not exist", id)
	}
	if x.t.ReadOnlyDeclared() {
		// Declared read-only: no conflict-set registration. The snapshot
		// fast path revalidates every read at commit instead.
		return v, nil
	}
	if wts, observed := x.t.ObservedWriteTS(id); observed {
		if !x.e.ctl.OnRead(x.t, id, wts) {
			return nil, errRestart
		}
	}
	return v, nil
}

// Delete stages a deletion of id in the private workspace. For
// concurrency control a delete is a write.
func (x *Tx) Delete(id store.ObjectID) error { return x.stage(id, nil, true) }

// Write stages an after image for id in the private workspace.
func (x *Tx) Write(id store.ObjectID, value []byte) error { return x.stage(id, value, false) }

func (x *Tx) stage(id store.ObjectID, value []byte, del bool) error {
	if err := x.check(); err != nil {
		return err
	}
	if x.t.ReadOnlyDeclared() {
		// The read-only declaration was wrong: the reads so far skipped
		// conflict registration, so the only sound continuation is a
		// fresh, fully registered attempt.
		x.t.DemoteReadOnly()
		return errRestart
	}
	if del {
		x.t.StageDelete(id)
	} else {
		x.t.StageWrite(id, value)
	}
	if !x.e.ctl.OnWrite(x.t, id) {
		return errRestart
	}
	return nil
}

func (x *Tx) check() error {
	if _, dead := x.e.ctl.Doomed(x.t); dead {
		return errRestart
	}
	if x.t.Class == txn.Firm && x.t.Expired(x.e.clock.Now()) {
		return ErrDeadline
	}
	return nil
}

// Engine executes transactions on a (transient) primary node.
type Engine struct {
	cfg      Config
	db       *store.Store
	ctl      *occ.Controller
	queue    *sched.Queue
	overload *sched.Overload
	clock    simtime.Clock

	outcome    *metrics.Outcome
	respTime   *metrics.Histogram // submit → commit
	commitWait *metrics.Histogram // validation → commit (the LogWait step)

	durable    *durableMark
	replyHolds atomic.Uint64 // read results that had to wait for the watermark
	// onCommitFailure, if set before the first Submit, runs once when a
	// commit fails to become stable and stops the watermark.
	onCommitFailure func(error)

	path    atomic.Pointer[logPath] // the current commit path
	logMode atomic.Int32
	holds   atomic.Int64 // Holds out on the commit path

	// mu guards the executor slots: free counts those no transaction
	// holds, and turns has the hand-off of each transaction queued in EDF
	// order for one. A queued submitter's turn is signalled once: nil
	// when it is handed a slot, ErrOverload when an arrival displaced it.
	mu      sync.Mutex
	free    int
	turns   map[txn.ID]chan error
	nextID  atomic.Uint64
	stopped atomic.Bool

	inflight sync.WaitGroup // outstanding Submit calls and unsettled commits
}

// NewEngine builds an engine over db. The committer defines the commit
// path; swap it with SetCommitter on failover.
func NewEngine(cfg Config, db *store.Store, committer Committer, logMode LogMode) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:        cfg,
		db:         db,
		ctl:        occ.NewController(cfg.Protocol, db),
		queue:      sched.NewQueue(cfg.NonRTReserve),
		overload:   sched.NewOverload(cfg.Overload),
		clock:      cfg.Clock,
		outcome:    metrics.NewOutcome(),
		respTime:   new(metrics.Histogram),
		commitWait: new(metrics.Histogram),
		durable:    newDurableMark(),
		free:       cfg.Workers,
		turns:      make(map[txn.ID]chan error),
	}
	p := pathFor(committer, 1)
	e.path.Store(&p)
	e.logMode.Store(int32(logMode))
	return e
}

// DB exposes the engine's database (reads outside transactions see the
// latest committed state).
func (e *Engine) DB() *store.Store { return e.db }

// Controller exposes the concurrency controller, for stats.
func (e *Engine) Controller() *occ.Controller { return e.ctl }

// Outcome exposes the outcome tally.
func (e *Engine) Outcome() *metrics.Outcome { return e.outcome }

// ResponseTimes exposes the submit→commit latency histogram.
func (e *Engine) ResponseTimes() *metrics.Histogram { return e.respTime }

// CommitWaits exposes the validation→commit (log wait) histogram — the
// cost the hot stand-by removes from the critical path.
func (e *Engine) CommitWaits() *metrics.Histogram { return e.commitWait }

// DurableThrough reports the durable-through watermark: every commit
// with a serial at or below it is stable.
func (e *Engine) DurableThrough() uint64 { return e.durable.through.Load() }

// CommitCohorts is the distribution of serials covered by each advance of
// the durable watermark: the size of each cohort the committer made
// stable at once.
func (e *Engine) CommitCohorts() *metrics.IntDist { return &e.durable.cohorts }

// ReplyHolds counts read results that had to wait for the watermark
// because they observed a write whose commit was not yet stable.
func (e *Engine) ReplyHolds() uint64 { return e.replyHolds.Load() }

// Seed continues the engine from an applied log position: the
// controller's serial and timestamp counters (see occ.Controller.Seed),
// and the durable watermark, which starts at lastSerial because
// everything up to it is already stable where it was applied from.
func (e *Engine) Seed(lastSerial, maxTS uint64) {
	e.ctl.Seed(lastSerial, maxTS)
	e.durable.seed(lastSerial)
	(*e.path.Load()).adopt(lastSerial+1, nil)
}

// Overload exposes the overload manager.
func (e *Engine) Overload() *sched.Overload { return e.overload }

// AtAdmissionLimit reports whether the overload manager would deny an
// arriving transaction right now. Service front ends consult it at the
// socket so overload misses are answered before any work is queued;
// Execute still runs real admission, so the check is advisory.
func (e *Engine) AtAdmissionLimit() bool {
	return !e.overload.WouldAdmit(e.clock.Now())
}

// LogMode reports the engine's current logging mode.
func (e *Engine) LogMode() LogMode { return LogMode(e.logMode.Load()) }

// SetCommitter atomically swaps the commit path (failover: ship→disk).
// The previous committer hands every commit it has not made stable to c
// in serial order, and forwards any that still reach it. It is returned;
// the caller decides when to close it.
func (e *Engine) SetCommitter(c Committer, mode LogMode) Committer {
	next := pathFor(c, e.DurableThrough()+1)
	e.logMode.Store(int32(mode))
	prev := *e.path.Swap(&next)
	if _, compat := next.(*blockingPath); !compat {
		prev.handoff(next)
	}
	return prev
}

// Execute submits a transaction and blocks until it commits or aborts
// and its result is durable: Submit followed by Release.Wait.
func (e *Engine) Execute(req Request) error {
	rel, err := e.Submit(req)
	if werr := rel.Wait(); werr != nil {
		return werr
	}
	return err
}

// Submit runs a transaction through validation and returns as soon as
// its outcome is decided, without waiting for the commit to become
// stable: the commit goes to the committer and the caller moves on. The
// caller's goroutine runs the transaction itself when an executor slot
// is free and nothing is queued; otherwise it queues in EDF order and
// runs it when a finishing transaction hands it the slot. The returned
// Release says what the result waits on before it may be shown — for a
// commit its own serial, for a read-only or failed transaction the
// highest serial it read. Until then the caller must hold the result
// back, and must report a failure instead if Release.Wait fails. Once a
// commit has failed to become stable, every later update fails with
// ErrNodeFailure before it validates.
func (e *Engine) Submit(req Request) (Release, error) {
	if e.stopped.Load() {
		return Release{}, ErrStopped
	}
	e.inflight.Add(1)
	defer e.inflight.Done()
	if e.stopped.Load() { // recheck under the inflight guard
		return Release{}, ErrStopped
	}

	e.outcome.Submit()
	now := e.clock.Now()
	if !e.overload.Admit(now) {
		// The overload manager is at its limit: the arriving
		// transaction is the lowest-priority work in the system unless
		// its criticality displaces something still queued.
		e.mu.Lock()
		victim := e.queue.EvictLowerCriticality(req.Criticality)
		var turn chan error
		if victim != nil {
			turn = e.turns[victim.ID]
			delete(e.turns, victim.ID)
		}
		e.mu.Unlock()
		if victim == nil {
			e.outcome.Abort(txn.OverloadDenied)
			return Release{}, ErrOverload
		}
		turn <- e.finish(victim, txn.OverloadDenied, ErrOverload)
		e.overload.ForceAdmit()
	}

	deadline := txn.NoDeadline
	if req.Class != txn.NonRealTime && req.Deadline > 0 {
		deadline = now.Add(req.Deadline)
	}
	t := txn.New(txn.ID(e.nextID.Add(1)), req.Class, now, deadline)
	t.Criticality = req.Criticality
	if req.ReadOnly {
		t.DeclareReadOnly()
	}

	e.mu.Lock()
	if e.free > 0 && len(e.turns) == 0 {
		e.free--
		e.mu.Unlock()
	} else {
		turn := make(chan error, 1)
		e.turns[t.ID] = turn
		e.queue.Push(t)
		e.mu.Unlock()
		if err := <-turn; err != nil {
			e.overload.Done() // displaced before it ran
			return Release{}, err
		}
	}
	rel, err := e.run(t, req)
	e.yield()
	if rel.e == nil || rel.read {
		e.overload.Done() // else settle frees the slot once the commit is stable
	}
	return rel, err
}

// yield passes a finishing transaction's executor slot to the earliest
// queued transaction, or frees it if none is queued.
func (e *Engine) yield() {
	e.mu.Lock()
	if len(e.turns) == 0 {
		e.free++
		e.mu.Unlock()
		return
	}
	t := e.queue.Pop()
	turn := e.turns[t.ID]
	delete(e.turns, t.ID)
	e.mu.Unlock()
	turn <- nil
}

// Hold keeps an engine's commit path open. While any Hold is out, a
// committer with a device does not start a cohort with this engine's
// commits until a full one is ready: a front end that already has more
// updates in hand takes a Hold, submits them, and releases it, and they
// share one wire write or one sync. A Hold must be released exactly
// once, and before its holder waits for anything, since the commits it
// holds wait for it. The zero Hold is a no-op.
type Hold struct{ e *Engine }

// Hold holds the commit path open until Release.
func (e *Engine) Hold() Hold {
	e.holds.Add(1)
	return Hold{e: e}
}

// Release ends the hold; the last one out wakes the current commit path.
func (h Hold) Release() {
	if h.e != nil && h.e.holds.Add(-1) == 0 {
		(*h.e.path.Load()).kick()
	}
}

// Stop drains outstanding requests and closes the commit path.
func (e *Engine) Stop() {
	if e.stopped.Swap(true) {
		return
	}
	e.inflight.Wait()
	(*e.path.Load()).Close()
}

// run executes one attempt chain (with restarts) of a transaction to
// completion and returns its result and what the result waits on.
func (e *Engine) run(t *txn.Transaction, req Request) (Release, error) {
	for {
		now := e.clock.Now()
		if t.Class == txn.Firm && t.Expired(now) {
			return Release{}, e.finish(t, txn.DeadlineMiss, ErrDeadline)
		}
		e.ctl.Begin(t)
		t.State = txn.Running
		err := req.Do(&Tx{e: e, t: t})

		switch {
		case err == nil:
			// fall through to validation
		case errors.Is(err, errRestart):
			if err := e.restart(t); err != nil {
				return Release{}, err
			}
			continue
		case errors.Is(err, ErrDeadline):
			e.ctl.Finish(t)
			return Release{}, e.finish(t, txn.DeadlineMiss, ErrDeadline)
		default:
			// User error: the transaction aborts by its own choice;
			// deferred writes are simply discarded. The error may still
			// reveal what the body read.
			rel := Release{e: e, serial: t.ReadSerial(), read: true}
			e.ctl.Finish(t)
			t.Abort(txn.UserAbort)
			e.outcome.Abort(txn.UserAbort)
			return rel, err
		}

		now = e.clock.Now()
		if t.Class == txn.Firm && t.Expired(now) {
			e.ctl.Finish(t)
			return Release{}, e.finish(t, txn.DeadlineMiss, ErrDeadline)
		}
		if !t.ReadOnly() {
			if err := e.durable.broken(); err != nil {
				// A commit has already failed to become stable, so the
				// watermark can never reach this one: refuse it before
				// validation installs writes no client could be told of.
				e.ctl.Finish(t)
				return Release{}, e.finish(t, txn.NodeFailure, err)
			}
		}

		t.State = txn.Validating
		var res occ.Result
		roFast := false
		if t.ReadOnly() {
			var decided bool
			if res, decided = e.ctl.ValidateReadOnly(t); decided {
				roFast = res.OK
			} else if t.ReadOnlyDeclared() {
				// The fast path could not certify the snapshot and this
				// transaction's reads were never registered, so full
				// validation would be unsound for it: restart into the
				// fully registered path.
				t.DemoteReadOnly()
				if err := e.restart(t); err != nil {
					return Release{}, err
				}
				continue
			} else {
				// Detected read-only (reads fully registered): full
				// validation is sound and may still serialize the
				// transaction below the conflicting writer.
				res = e.ctl.Validate(t)
			}
		} else {
			res = e.ctl.Validate(t)
		}
		if !res.OK {
			if err := e.restart(t); err != nil {
				return Release{}, err
			}
			continue
		}
		// Victims have been marked doomed; their own submitters restart
		// them at the next operation or validation. The transaction's
		// concurrency-control state goes now, at validation: its writes
		// are installed and constrain later validators through the
		// store, so nothing is held across the log wait but the result.
		e.ctl.Finish(t)

		if roFast {
			// A fast-path read-only commit wrote nothing, consumed no
			// serial, and per the paper needs no shipped log — the
			// committer is never touched. Its result waits only for the
			// commits it read.
			t.State = txn.Committed
			e.committed(t, e.clock.Now())
			return Release{e: e, serial: t.ReadSerial(), read: true}, nil
		}
		// Write phase already applied inside Validate. The committer
		// makes the commit stable without the submitter: it settles the
		// commit, with the rest of its cohort, when the log is stable.
		t.State = txn.LogWait
		e.inflight.Add(1)
		c := &commit{serial: t.SerialOrder, at: e.clock.Now(), e: e, t: t}
		if e.LogMode() != LogNone {
			c.g = &wal.Group{Writes: wal.WriteRecordsFor(t), Commit: wal.CommitRecordFor(t)}
		}
		(*e.path.Load()).enqueue(c)
		return Release{e: e, serial: t.SerialOrder}, nil
	}
}

// settle is the LogWait's end for a run of commits the committer made
// stable (err nil) or could not: it records each outcome and latency,
// frees the admission slots, and only then moves the durable watermark
// once, so whoever waits on the watermark sees the accounting done.
// Commits not from this engine (direct Commit calls) are skipped.
func (e *Engine) settle(cs []*commit, err error) {
	end := e.clock.Now()
	var lo, hi uint64
	n := 0
	for _, c := range cs {
		if c.e != e {
			continue
		}
		if n++; n == 1 {
			lo = c.serial
		}
		hi = c.serial
		e.commitWait.Observe(end.Sub(c.at))
		if err != nil {
			// Installed in memory, but stable on no log path.
			e.outcome.Abort(txn.NodeFailure)
		} else {
			c.t.State = txn.Committed
			e.committed(c.t, end)
		}
		e.overload.Done()
	}
	if n == 0 {
		return
	}
	if err != nil {
		if first, ferr := e.durable.fail(lo, err); first && e.onCommitFailure != nil {
			e.onCommitFailure(ferr)
		}
	} else {
		e.durable.advance(hi)
	}
	e.inflight.Add(-n)
}

// committed accounts a commit that finished at end.
func (e *Engine) committed(t *txn.Transaction, end simtime.Time) {
	e.respTime.Observe(end.Sub(t.Arrival))
	if t.Class == txn.Soft && t.Expired(end) {
		e.outcome.CommitLate()
		e.overload.RecordMiss(end)
	} else {
		e.outcome.Commit()
	}
}

// restart resets the transaction for another attempt if it has restarts
// and time left, and returns nil; otherwise it finishes the transaction
// with a conflict or deadline abort and returns that error.
func (e *Engine) restart(t *txn.Transaction) error {
	e.ctl.Finish(t)
	if t.Restarts >= e.cfg.MaxRestarts {
		return e.finish(t, txn.Conflict, ErrConflict)
	}
	if t.Class == txn.Firm && t.Expired(e.clock.Now()) {
		return e.finish(t, txn.DeadlineMiss, ErrDeadline)
	}
	e.outcome.Restart()
	t.ResetForRestart()
	return nil
}

// finish aborts t for reason and returns err, the submitter's result.
func (e *Engine) finish(t *txn.Transaction, reason txn.AbortReason, err error) error {
	t.Abort(reason)
	e.outcome.Abort(reason)
	if reason == txn.DeadlineMiss {
		e.overload.RecordMiss(e.clock.Now())
	}
	return err
}
