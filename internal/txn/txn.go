// Package txn defines the RODAIN transaction model: real-time attributes
// (criticality class and deadline), the deferred-write private workspace,
// read/write-set bookkeeping for optimistic concurrency control, and the
// lifecycle state machine.
//
// The deferred write mechanism is central to the paper's design: a
// transaction writes modified data to the database only after it has been
// accepted for commit by the concurrency controller, so an aborted
// transaction simply discards its private copies — no rollback is ever
// needed.
package txn

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/simtime"
	"repro/internal/store"
)

// ID identifies a transaction. IDs are assigned in arrival order by the
// node that executes the transaction.
type ID uint64

// Class is the real-time criticality class of a transaction.
type Class int

// Criticality classes, most critical first. RODAIN executes firm- and
// soft-deadline transactions alongside transactions with no deadline.
const (
	// Firm transactions are aborted the moment their deadline expires;
	// a late result has no value.
	Firm Class = iota
	// Soft transactions keep running past their deadline; the miss is
	// recorded but the result is still useful.
	Soft
	// NonRealTime transactions have no deadline and run in the
	// execution-time fraction the scheduler reserves on demand.
	NonRealTime
)

func (c Class) String() string {
	switch c {
	case Firm:
		return "firm"
	case Soft:
		return "soft"
	case NonRealTime:
		return "non-rt"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// State is a transaction lifecycle state.
type State int

// Lifecycle states. The happy path is
// Created → Running → Validating → Writing → LogWait → Committed.
const (
	Created State = iota
	Running
	Validating
	// Writing is the write phase: validated updates are applied to the
	// database and redo log records are generated.
	Writing
	// LogWait is the commit step where the transaction waits for its
	// log records to reach stable storage — the mirror node in normal
	// mode, the local disk in transient mode.
	LogWait
	Committed
	Aborted
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Running:
		return "running"
	case Validating:
		return "validating"
	case Writing:
		return "writing"
	case LogWait:
		return "logwait"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// AbortReason records why a transaction failed. The experimental study
// classifies misses into deadline expiry, concurrency-control conflict,
// and admission denial by the overload manager.
type AbortReason int

// Abort reasons.
const (
	NoAbort AbortReason = iota
	DeadlineMiss
	Conflict
	OverloadDenied
	NodeFailure
	UserAbort
)

func (r AbortReason) String() string {
	switch r {
	case NoAbort:
		return "none"
	case DeadlineMiss:
		return "deadline"
	case Conflict:
		return "conflict"
	case OverloadDenied:
		return "overload"
	case NodeFailure:
		return "node-failure"
	case UserAbort:
		return "user"
	default:
		return fmt.Sprintf("AbortReason(%d)", int(r))
	}
}

// NoDeadline marks a transaction without a deadline.
const NoDeadline simtime.Time = math.MaxInt64

// ReadEntry records one read-set member: the object and the write
// timestamp the transaction observed when it read the object.
type ReadEntry struct {
	ID      store.ObjectID
	WriteTS uint64
}

// Transaction is one RODAIN transaction. It is owned by a single worker
// goroutine (or the simulation loop) at any moment and is not internally
// synchronized, with two exceptions shared with concurrent validators:
// the timestamp interval bounds and the doomed flag, which are atomics.
type Transaction struct {
	ID          ID
	Class       Class
	Criticality int // higher is more important to the overload manager
	Arrival     simtime.Time
	Deadline    simtime.Time // absolute; NoDeadline for non-RT

	State  State
	Reason AbortReason

	// Restarts counts concurrency-control restarts of this transaction.
	Restarts int

	// Timestamp interval for OCC-TI/OCC-DATI dynamic adjustment of the
	// serialization order. The final timestamp is chosen inside
	// [tsLow, tsHigh]; an empty interval (tsLow > tsHigh) means the
	// transaction must restart. The bounds are atomics because a
	// concurrent validator may adjust another transaction's interval
	// while its owner goroutine is running: the low bound only ever
	// rises and the high bound only ever falls while the transaction is
	// active, so CAS-max/CAS-min keep both monotonic without a lock.
	tsLow, tsHigh atomic.Uint64

	// doom holds the pending abort reason (NoAbort when healthy). A
	// validator dooms a victim by CAS-ing NoAbort→reason, so exactly one
	// doomer wins; the owner polls it lock-free between operations.
	doom atomic.Int64

	// CommitTS is the final serialization timestamp assigned at
	// successful validation.
	CommitTS uint64

	// SerialOrder is the true validation order: the position of this
	// transaction in the sequence of successfully validated
	// transactions. The shipper sends log groups in this order and the
	// mirror checks it.
	SerialOrder uint64

	// roDeclared marks a transaction its submitter declared read-only.
	// The engine skips per-read controller registration for such a
	// transaction and commits it through the read-only snapshot fast
	// path; a declaration that proves wrong (the body stages a write, or
	// the fast path cannot certify the snapshot) is demoted and the
	// transaction restarts through the fully registered path — the
	// declaration is a performance hint, never a correctness contract.
	roDeclared bool

	// readSerial is the highest commit serial among the database versions
	// (and deletions) this attempt observed: the commit its result depends
	// on, and so the durability a reply exposing it must wait for.
	readSerial uint64

	readSet    []ReadEntry
	readIndex  map[store.ObjectID]int
	writes     map[store.ObjectID][]byte // deferred after images
	tombstones map[store.ObjectID]bool   // deferred deletions
	writeIDs   []store.ObjectID          // in first-write order

	applyOps []store.Op // write-phase scratch, reused across restarts
}

// New returns a transaction in the Created state. deadline is absolute
// virtual time; pass NoDeadline for none.
func New(id ID, class Class, arrival, deadline simtime.Time) *Transaction {
	t := &Transaction{
		ID:         id,
		Class:      class,
		Arrival:    arrival,
		Deadline:   deadline,
		readIndex:  make(map[store.ObjectID]int),
		writes:     make(map[store.ObjectID][]byte),
		tombstones: make(map[store.ObjectID]bool),
	}
	t.tsLow.Store(1)
	t.tsHigh.Store(math.MaxUint64)
	return t
}

// Interval returns the current timestamp interval bounds.
func (t *Transaction) Interval() (lo, hi uint64) {
	return t.tsLow.Load(), t.tsHigh.Load()
}

// SetInterval forcibly sets both interval bounds. It is only safe while
// no concurrent adjuster can touch the transaction (construction,
// restart, tests).
func (t *Transaction) SetInterval(lo, hi uint64) {
	t.tsLow.Store(lo)
	t.tsHigh.Store(hi)
}

// RaiseLow raises the interval low bound to v if v is larger
// (CAS-max). It reports whether the bound actually moved.
func (t *Transaction) RaiseLow(v uint64) bool {
	for {
		cur := t.tsLow.Load()
		if v <= cur {
			return false
		}
		if t.tsLow.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// LowerHigh lowers the interval high bound to v if v is smaller
// (CAS-min). It reports whether the bound actually moved.
func (t *Transaction) LowerHigh(v uint64) bool {
	for {
		cur := t.tsHigh.Load()
		if v >= cur {
			return false
		}
		if t.tsHigh.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// IntervalEmpty reports whether the timestamp interval has shut
// (low > high), meaning the transaction cannot be serialized and must
// restart.
func (t *Transaction) IntervalEmpty() bool {
	return t.tsLow.Load() > t.tsHigh.Load()
}

// MarkDoomed requests an abort with the given reason. Only the first
// doomer wins (CAS NoAbort→reason); it reports whether this call was
// the one that doomed the transaction. reason must not be NoAbort.
func (t *Transaction) MarkDoomed(reason AbortReason) bool {
	return t.doom.CompareAndSwap(int64(NoAbort), int64(reason))
}

// DoomState returns the pending abort reason, if any. It is lock-free
// and allocation-free: the per-operation Doomed poll rides on it.
func (t *Transaction) DoomState() (AbortReason, bool) {
	r := AbortReason(t.doom.Load())
	return r, r != NoAbort
}

// ClearDoom resets the pending abort reason (begin / restart).
func (t *Transaction) ClearDoom() {
	t.doom.Store(int64(NoAbort))
}

// HasDeadline reports whether the transaction carries a deadline.
func (t *Transaction) HasDeadline() bool { return t.Deadline != NoDeadline }

// Expired reports whether the transaction's deadline has passed at now.
func (t *Transaction) Expired(now simtime.Time) bool {
	return t.HasDeadline() && now > t.Deadline
}

// ReadOnly reports whether the transaction staged no writes or deletes.
func (t *Transaction) ReadOnly() bool { return len(t.writes) == 0 && len(t.tombstones) == 0 }

// DeclareReadOnly marks the transaction as submitter-declared read-only
// (see the roDeclared field). Call before the body first runs.
func (t *Transaction) DeclareReadOnly() { t.roDeclared = true }

// ReadOnlyDeclared reports whether the submitter declared this
// transaction read-only and it has not been demoted since.
func (t *Transaction) ReadOnlyDeclared() bool { return t.roDeclared }

// DemoteReadOnly withdraws the read-only declaration: subsequent
// attempts run through the fully registered read path. Demotion is
// one-way for the transaction's lifetime — a declaration that proved
// wrong once is not trusted again.
func (t *Transaction) DemoteReadOnly() { t.roDeclared = false }

// Read performs a transactional read against db: it returns the
// transaction's own deferred write if one exists (read-your-writes, and
// a deferred delete hides the object), otherwise the current database
// value, recording the observed write timestamp in the read set. It
// reports false if the object is absent.
func (t *Transaction) Read(db *store.Store, id store.ObjectID) ([]byte, bool) {
	if t.tombstones[id] {
		return nil, false
	}
	if v, ok := t.writes[id]; ok {
		return cloneBytes(v), true
	}
	v, ok := t.readDB(db, id)
	return cloneBytes(v), ok
}

// ReadView is Read without the defensive copies: the returned slice is
// borrowed — from the database (store.View contract: never mutated in
// place, but stale after a later commit) or from the private workspace —
// and must not be modified or retained by the caller. It is the
// engine-internal read for decode-and-discard accesses; Read keeps the
// owned-copy contract for everything else.
func (t *Transaction) ReadView(db *store.Store, id store.ObjectID) ([]byte, bool) {
	if t.tombstones[id] {
		return nil, false
	}
	if v, ok := t.writes[id]; ok {
		return v, true
	}
	return t.readDB(db, id)
}

// readDB reads id from the database (borrowed), noting the serial of the
// version — or of the deletion — it observed and recording a present
// object in the read set.
func (t *Transaction) readDB(db *store.Store, id store.ObjectID) ([]byte, bool) {
	v, wts, serial, ok := db.ViewVersion(id)
	if serial > t.readSerial {
		t.readSerial = serial
	}
	if !ok {
		return nil, false
	}
	t.recordRead(id, wts)
	return v, true
}

// ReadSerial reports the highest commit serial among the database
// versions this attempt has read (0 when it read only loaded state).
func (t *Transaction) ReadSerial() uint64 { return t.readSerial }

// recordRead adds (or refreshes) a read-set entry.
func (t *Transaction) recordRead(id store.ObjectID, wts uint64) {
	if i, ok := t.readIndex[id]; ok {
		t.readSet[i].WriteTS = wts
		return
	}
	t.readIndex[id] = len(t.readSet)
	t.readSet = append(t.readSet, ReadEntry{ID: id, WriteTS: wts})
}

// StageWrite defers a write into the private workspace. The after image
// is copied. Nothing reaches the database until ApplyWrites. A write
// cancels an earlier deferred delete of the same object.
func (t *Transaction) StageWrite(id store.ObjectID, afterImage []byte) {
	if _, w := t.writes[id]; !w && !t.tombstones[id] {
		t.writeIDs = append(t.writeIDs, id)
	}
	delete(t.tombstones, id)
	t.writes[id] = cloneBytes(afterImage)
}

// StageDelete defers a deletion into the private workspace. For
// concurrency control a delete is a write of the object.
func (t *Transaction) StageDelete(id store.ObjectID) {
	if _, w := t.writes[id]; !w && !t.tombstones[id] {
		t.writeIDs = append(t.writeIDs, id)
	}
	delete(t.writes, id)
	t.tombstones[id] = true
}

// IsDelete reports whether the staged write of id is a deletion.
func (t *Transaction) IsDelete(id store.ObjectID) bool { return t.tombstones[id] }

// ReadSet returns the read-set entries in first-read order. The slice is
// shared; callers must not modify it.
func (t *Transaction) ReadSet() []ReadEntry { return t.readSet }

// WriteIDs returns the written object ids in first-write order. The
// slice is shared; callers must not modify it.
func (t *Transaction) WriteIDs() []store.ObjectID { return t.writeIDs }

// WriteImage returns the staged after image for id (nil, true for a
// staged deletion).
func (t *Transaction) WriteImage(id store.ObjectID) ([]byte, bool) {
	if t.tombstones[id] {
		return nil, true
	}
	v, ok := t.writes[id]
	return v, ok
}

// ObservedWriteTS returns the write timestamp the transaction observed
// when it read id from the database. It reports false if id is not in the
// read set.
func (t *Transaction) ObservedWriteTS(id store.ObjectID) (uint64, bool) {
	i, ok := t.readIndex[id]
	if !ok {
		return 0, false
	}
	return t.readSet[i].WriteTS, true
}

// ReadsObject reports whether id is in the read set.
func (t *Transaction) ReadsObject(id store.ObjectID) bool {
	_, ok := t.readIndex[id]
	return ok
}

// WritesObject reports whether id is in the write set (including staged
// deletions).
func (t *Transaction) WritesObject(id store.ObjectID) bool {
	if t.tombstones[id] {
		return true
	}
	_, ok := t.writes[id]
	return ok
}

// ApplyWrites installs every staged write into db with the transaction's
// commit timestamp and serial order, and marks the read set as observed. This is the write
// phase; it must only be called after successful validation. The writes
// go through ApplyGroup, so they become visible as one atomic step even
// to readers that bypass the concurrency controller.
func (t *Transaction) ApplyWrites(db *store.Store) {
	ops := t.applyOps[:0]
	for _, id := range t.writeIDs {
		if t.tombstones[id] {
			ops = append(ops, store.Op{ID: id, Delete: true, Serial: t.SerialOrder})
			continue
		}
		ops = append(ops, store.Op{ID: id, Value: t.writes[id], Serial: t.SerialOrder})
	}
	t.applyOps = ops
	db.ApplyGroup(ops, t.CommitTS)
	for _, re := range t.readSet {
		db.ObserveRead(re.ID, t.CommitTS)
	}
}

// DiscardWrites drops the private workspace: the whole abort path of the
// deferred-write design. Read/write sets are cleared so a restarted
// transaction begins fresh.
func (t *Transaction) DiscardWrites() {
	t.readSerial = 0
	t.readSet = t.readSet[:0]
	t.readIndex = make(map[store.ObjectID]int)
	t.writes = make(map[store.ObjectID][]byte)
	t.tombstones = make(map[store.ObjectID]bool)
	t.writeIDs = t.writeIDs[:0]
}

// ResetForRestart prepares the transaction to run again after a
// concurrency-control restart: workspace discarded, interval reset,
// restart counted. Arrival time and deadline are unchanged — a restarted
// firm transaction still has to finish by its original deadline.
func (t *Transaction) ResetForRestart() {
	t.DiscardWrites()
	t.tsLow.Store(1)
	t.tsHigh.Store(math.MaxUint64)
	t.ClearDoom()
	t.CommitTS = 0
	t.State = Created
	t.Reason = NoAbort
	t.Restarts++
}

// Abort moves the transaction to Aborted with the given reason and drops
// its workspace.
func (t *Transaction) Abort(reason AbortReason) {
	t.State = Aborted
	t.Reason = reason
	t.DiscardWrites()
}

func (t *Transaction) String() string {
	return fmt.Sprintf("txn{%d %s %s r=%d w=%d}", t.ID, t.Class, t.State, len(t.readSet), len(t.writes))
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
