// Package occ implements the optimistic concurrency-control protocols of
// the RODAIN database: OCC-DATI (the paper's protocol, combining OCC-DA
// and OCC-TI), plus the OCC-TI, OCC-DA and classic backward-validation
// OCC-BC baselines.
//
// All four protocols share a timestamp formulation. Every committed
// transaction carries a unique commit timestamp; the serialization order
// of accepted transactions is exactly commit-timestamp order. The
// interval protocols (DA, TI, DATI) keep a timestamp interval
// [tsLow, tsHigh] per active transaction ("dynamic adjustment of
// serialization order using timestamp intervals"): a validating
// transaction picks its final timestamp inside its interval and then
// narrows the intervals of conflicting active transactions — a reader of
// an overwritten item is pushed before the writer, a writer of a read or
// written item is pushed after — restarting an active transaction only
// when its interval becomes empty. OCC-BC instead restarts the validating
// transaction whenever any item it read was overwritten after the read,
// which is the classic source of unnecessary restarts the paper's
// protocol avoids.
//
// Differences between the interval protocols as implemented here:
//
//   - OCC-DATI defers all conflict detection and interval adjustment to
//     the atomic validation step and assigns the earliest feasible
//     timestamp, leaving maximal room for active transactions to
//     serialize after it.
//   - OCC-TI additionally narrows the running transaction's interval at
//     every read and write against the committed item timestamps, so a
//     doomed transaction is detected (and restarted) as early as
//     possible, at the price of bookkeeping on every data access.
//   - OCC-DA assigns the latest feasible timestamp (validation order
//     where unconstrained) and performs no access-time narrowing.
//
// # Concurrency structure
//
// The controller is built so the common case never takes a global lock:
//
//   - Doomed polls read an atomic flag on the transaction itself.
//   - Begin/Finish touch one shard of the active-transaction registry.
//   - OnRead/OnWrite register the access in one shard of a per-object
//     index (the conflict sets a validator scans), plus one striped
//     store lookup.
//   - Validate holds a short serial "ticket" mutex for timestamp and
//     serial-order assignment, conflict-set snapshot against the object
//     shards, and interval adjustment of conflicting actives — then
//     applies the write phase through the striped store's ApplyGroup
//     outside the ticket. Validation order (SerialOrder) is assigned
//     under the ticket, and the store installs concurrent write phases
//     in commit-timestamp order, so the applied state equals the
//     serial application of the validation sequence.
//
// Committed-but-not-yet-applied effects are covered by a per-object
// overlay (committedRead/Write/Delete below): a validator folds the
// overlay over the store's item timestamps, so a second transaction
// validating during the first one's in-flight write phase still sees
// its constraints. An access that registers after a conflicting
// validation already scanned the object's conflict sets is doomed
// conservatively (it missed its interval adjustment); that window
// cannot occur in sequential use, so single-threaded behaviour is
// identical to the classic single-mutex controller.
package occ

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/txn"
)

// Kind selects a concurrency-control protocol.
type Kind int

// The available protocols.
const (
	// DATI is OCC-DATI, the paper's protocol.
	DATI Kind = iota
	// TI is OCC-TI (Lee & Son): timestamp intervals with access-time
	// narrowing.
	TI
	// DA is OCC-DA (Lam, Lam & Hung): dynamic adjustment at validation,
	// latest feasible timestamp.
	DA
	// BC is classic backward-validation OCC: the validating transaction
	// restarts on any read overwritten since it was read.
	BC
)

// ParseKind converts a protocol name ("dati", "ti", "da", "bc") to a Kind.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "dati", "occ-dati", "OCC-DATI":
		return DATI, nil
	case "ti", "occ-ti", "OCC-TI":
		return TI, nil
	case "da", "occ-da", "OCC-DA":
		return DA, nil
	case "bc", "occ-bc", "OCC-BC":
		return BC, nil
	}
	return 0, fmt.Errorf("occ: unknown protocol %q", name)
}

func (k Kind) String() string {
	switch k {
	case DATI:
		return "OCC-DATI"
	case TI:
		return "OCC-TI"
	case DA:
		return "OCC-DA"
	case BC:
		return "OCC-BC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Result reports the outcome of a validation.
type Result struct {
	// OK reports whether the validating transaction was accepted. When
	// true its CommitTS and SerialOrder are set and its writes have been
	// applied to the database.
	OK bool
	// Victims lists active transactions whose timestamp interval became
	// empty during adjustment; the engine must restart (or abort) them.
	// Victims is only non-empty when OK is true.
	Victims []*txn.Transaction
}

// Stats counts protocol events, for the restart-behaviour ablation.
type Stats struct {
	Validations     uint64 // validation attempts
	Commits         uint64 // accepted validations
	SelfRestarts    uint64 // validating transaction rejected
	VictimRestarts  uint64 // active transactions killed by adjustment
	AccessRestarts  uint64 // transactions doomed at read/write time
	IntervalAdjusts uint64 // interval narrowings applied to actives
	ROFastCommits   uint64 // read-only transactions committed on the fast path
	ROFallbacks     uint64 // read-only fast-path attempts that fell back to full validation

	// ReadLatency summarizes the engine-observed data-read latency
	// distribution (lock-free histogram; see Controller.ObserveReadLatency).
	ReadLatency metrics.HistogramSummary
}

// counters is the controller's live (atomic) form of Stats.
type counters struct {
	validations     atomic.Uint64
	commits         atomic.Uint64
	selfRestarts    atomic.Uint64
	victimRestarts  atomic.Uint64
	accessRestarts  atomic.Uint64
	intervalAdjusts atomic.Uint64
	roFastCommits   atomic.Uint64
	roFallbacks     atomic.Uint64
}

const (
	objShardBits  = 6
	objShardCount = 1 << objShardBits // object-index shards
	txnShardBits  = 4
	txnShardCount = 1 << txnShardBits // active-registry shards
)

// objectState is the per-object concurrency bookkeeping: the active
// transactions registered as readers/writers of the object (the conflict
// sets a validator adjusts), and the committed-timestamp overlay that
// covers the window between a transaction's acceptance under the ticket
// and the completion of its write phase against the store. Overlay
// fields are zero when no apply is pending; they are published at
// acceptance and retired (reset) once the owning apply has reached the
// store, at which point the store's own item timestamps subsume them.
type objectState struct {
	committedRead   uint64
	committedWrite  uint64
	committedDelete uint64
	readers         map[txn.ID]*txn.Transaction
	writers         map[txn.ID]*txn.Transaction
}

func (os *objectState) idle() bool {
	return len(os.readers) == 0 && len(os.writers) == 0 &&
		os.committedRead == 0 && os.committedWrite == 0 && os.committedDelete == 0
}

// objShard is one lock-striped slice of the per-object index.
type objShard struct {
	mu      sync.Mutex
	objects map[store.ObjectID]*objectState
	// pool holds retired objectStates (maps emptied, overlay zero) for
	// reuse, so a cold object's first reader does not pay two map
	// allocations on the hot path. Guarded by mu, bounded by
	// objShardResident.
	pool []*objectState
	_    [40]byte // keep shards on separate cache lines
}

// readerMapSeed pre-sizes the reader/writer maps of a fresh objectState.
// Most objects see a handful of concurrent registrants; seeding the maps
// at that size makes the first registrations growth-free.
const readerMapSeed = 4

// ensure returns the object's state, creating it if absent — from the
// shard's retire pool when one is available, so steady-state churn on a
// shedding shard allocates nothing. Caller holds the shard mutex.
// ensure is the only creator of objectStates, and every state it hands
// out has non-nil, pre-sized reader/writer maps.
func (sh *objShard) ensure(id store.ObjectID) *objectState {
	os := sh.objects[id]
	if os == nil {
		if n := len(sh.pool); n > 0 {
			os = sh.pool[n-1]
			sh.pool[n-1] = nil
			sh.pool = sh.pool[:n-1]
		} else {
			os = &objectState{
				readers: make(map[txn.ID]*txn.Transaction, readerMapSeed),
				writers: make(map[txn.ID]*txn.Transaction, readerMapSeed),
			}
		}
		sh.objects[id] = os
	}
	return os
}

// objShardResident is how many idle entries a shard keeps resident
// before it starts freeing them. Hot objects cycle between idle and
// registered on every transaction; keeping a bounded working set
// resident (with its pre-built reader/writer maps) avoids re-allocating
// the state on each touch, while unbounded keyspaces still shed entries
// once a shard grows past the cap.
const objShardResident = 64

// freeIfIdle drops the object's state once nothing references it and
// the shard already holds a full resident set, so the index stays
// bounded without churning allocations on a small hot set. Shed states
// (maps already empty by idleness, overlay zero) go back to the shard
// pool for the next cold object. Caller holds the shard mutex.
func (sh *objShard) freeIfIdle(id store.ObjectID, os *objectState) {
	if os.idle() && len(sh.objects) > objShardResident {
		delete(sh.objects, id)
		if len(sh.pool) < objShardResident {
			sh.pool = append(sh.pool, os)
		}
	}
}

// txnShard is one slice of the active-transaction registry.
type txnShard struct {
	mu     sync.Mutex
	active map[txn.ID]*txn.Transaction
	_      [40]byte
}

// Controller coordinates one protocol instance over one database. It is
// safe for concurrent use.
type Controller struct {
	kind Kind
	db   *store.Store

	txns [txnShardCount]txnShard
	objs [objShardCount]objShard

	activeN atomic.Int64

	// mu is the serial ticket: it orders validations and guards the
	// timestamp/serial state below. Nothing on the per-operation path
	// (Begin, Finish, OnRead, OnWrite, Doomed) takes it.
	mu        sync.Mutex
	applyIdle *sync.Cond // signaled when applying empties
	// applying holds the serial orders of accepted validations whose
	// write phase is in flight; StableSerial derives the fuzzy
	// checkpointer's watermark from it. Bounded by the worker count, so
	// the min scan is a few entries.
	applying map[uint64]struct{}
	// Issued commit timestamps above tsFloor are the gap slots in
	// [slotLo, slotHi] (a contiguous run of issued slots; empty while
	// slotHi is 0) plus the exceptions in usedTS: squeezed timestamps
	// and slots that did not extend the run. See used.
	slotLo     uint64
	slotHi     uint64
	usedTS     map[uint64]struct{}
	maxTS      uint64
	tsFloor    uint64 // all new timestamps must exceed this (takeover seeding)
	nextSerial uint64

	// adjustment scratch, reused across validations (single validator at
	// a time under the ticket).
	adjTxns []adjEntry
	adjIdx  map[txn.ID]int

	// validateSeq is the acceptance seqlock the read-only fast path
	// scans against: odd while a validator's acceptance window (overlay
	// publication through serial assignment, all under the ticket) is
	// open, even otherwise. A read-only certification scan that observes
	// the same even value before and after knows no acceptance
	// interleaved it.
	validateSeq atomic.Uint64

	// readLat is the engine-fed data-read latency distribution; the
	// histogram is lock-free, so observation costs a few atomic adds on
	// the zero-lock read path it measures.
	readLat metrics.Histogram

	n counters
}

// adjEntry aggregates the conflict directions between the validating
// transaction and one active transaction, mirroring the classic per-
// active conflict classification: precede means the active must
// serialize before the validator (it read an item the validator
// overwrites), follow means after (it writes an item the validator read
// or wrote).
type adjEntry struct {
	u       *txn.Transaction
	precede bool
	follow  bool
}

// NewController returns a controller running protocol kind over db.
func NewController(kind Kind, db *store.Store) *Controller {
	c := &Controller{
		kind:     kind,
		db:       db,
		usedTS:   make(map[uint64]struct{}),
		adjIdx:   make(map[txn.ID]int),
		applying: make(map[uint64]struct{}),
	}
	c.applyIdle = sync.NewCond(&c.mu)
	for i := range c.txns {
		c.txns[i].active = make(map[txn.ID]*txn.Transaction)
	}
	for i := range c.objs {
		c.objs[i].objects = make(map[store.ObjectID]*objectState)
	}
	return c
}

// fibMix is the 64-bit Fibonacci hashing constant; it spreads dense
// object and transaction ids across shards.
const fibMix = 0x9E3779B97F4A7C15

func (c *Controller) objShardFor(id store.ObjectID) *objShard {
	return &c.objs[(uint64(id)*fibMix)>>(64-objShardBits)]
}

func (c *Controller) txnShardFor(id txn.ID) *txnShard {
	return &c.txns[(uint64(id)*fibMix)>>(64-txnShardBits)]
}

// Kind reports the protocol in use.
func (c *Controller) Kind() Kind { return c.kind }

// Stats returns a snapshot of the protocol counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Validations:     c.n.validations.Load(),
		Commits:         c.n.commits.Load(),
		SelfRestarts:    c.n.selfRestarts.Load(),
		VictimRestarts:  c.n.victimRestarts.Load(),
		AccessRestarts:  c.n.accessRestarts.Load(),
		IntervalAdjusts: c.n.intervalAdjusts.Load(),
		ROFastCommits:   c.n.roFastCommits.Load(),
		ROFallbacks:     c.n.roFallbacks.Load(),
		ReadLatency:     c.readLat.Summary(),
	}
}

// ObserveReadLatency records one data-read latency into the
// controller's read histogram (surfaced through Stats.ReadLatency).
// Lock-free; safe from any number of workers.
func (c *Controller) ObserveReadLatency(d time.Duration) { c.readLat.Observe(d) }

// ActiveCount reports the number of registered active transactions.
func (c *Controller) ActiveCount() int {
	return int(c.activeN.Load())
}

// Seed initializes the validation-order and timestamp counters when a
// node takes over from an applied log position: serial orders continue
// from lastSerial and every new commit timestamp will exceed maxTS, so
// the new epoch never collides with timestamps issued before the
// failover.
func (c *Controller) Seed(lastSerial, maxTS uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lastSerial > c.nextSerial {
		c.nextSerial = lastSerial
	}
	if maxTS > c.maxTS {
		c.maxTS = maxTS
	}
	if maxTS > c.tsFloor {
		c.tsFloor = maxTS
		c.trimRun()
	}
}

// LastSerial reports the validation order of the most recent commit.
func (c *Controller) LastSerial() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSerial
}

// StableSerial reports the largest validation order S such that every
// accepted transaction with serial ≤ S has completed its write phase:
// all of their after images are installed in the database. It is the
// watermark source for fuzzy checkpoints — a stripe copied after
// StableSerial returned S is guaranteed to contain every group ≤ S that
// touched it, so replaying the log suffix above S over the copy cannot
// miss anything. With no write phase in flight it equals LastSerial.
func (c *Controller) StableSerial() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.nextSerial
	for serial := range c.applying {
		if serial-1 < s {
			s = serial - 1
		}
	}
	return s
}

// WithFrozen runs f while validation is blocked and no accepted write
// phase is in flight, passing the last issued validation order. It is
// the commit-path switch point for a joining mirror: the freeze lasts
// one write phase plus f, and f must be O(1) (swap the committer), not
// a snapshot. Once it returns, StableSerial is at least lastSerial.
func (c *Controller) WithFrozen(f func(lastSerial uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.applying) > 0 {
		c.applyIdle.Wait()
	}
	f(c.nextSerial)
}

// Begin registers t as active. A transaction must be registered before
// any OnRead/OnWrite/Validate call and must eventually be Finished.
func (c *Controller) Begin(t *txn.Transaction) {
	sh := c.txnShardFor(t.ID)
	sh.mu.Lock()
	if _, ok := sh.active[t.ID]; !ok {
		c.activeN.Add(1)
	}
	sh.active[t.ID] = t
	sh.mu.Unlock()
	t.ClearDoom()
}

// Finish unregisters t after commit or abort, removing it from the
// conflict sets of every object it touched. It must be called before
// the transaction's workspace is discarded or reset.
func (c *Controller) Finish(t *txn.Transaction) {
	sh := c.txnShardFor(t.ID)
	sh.mu.Lock()
	if _, ok := sh.active[t.ID]; ok {
		delete(sh.active, t.ID)
		c.activeN.Add(-1)
	}
	sh.mu.Unlock()
	for _, re := range t.ReadSet() {
		osh := c.objShardFor(re.ID)
		osh.mu.Lock()
		if os := osh.objects[re.ID]; os != nil {
			delete(os.readers, t.ID)
			osh.freeIfIdle(re.ID, os)
		}
		osh.mu.Unlock()
	}
	for _, id := range t.WriteIDs() {
		osh := c.objShardFor(id)
		osh.mu.Lock()
		if os := osh.objects[id]; os != nil {
			delete(os.writers, t.ID)
			osh.freeIfIdle(id, os)
		}
		osh.mu.Unlock()
	}
	t.ClearDoom()
}

// Doomed reports whether t has been marked for restart by another
// transaction's validation, along with the reason. Engines poll this at
// operation boundaries; it is a single atomic load.
func (c *Controller) Doomed(t *txn.Transaction) (txn.AbortReason, bool) {
	return t.DoomState()
}

// OnRead registers that t read object id, observing write timestamp
// wts. It reports false if the transaction is now doomed and should
// restart without further work. Registration is what a later
// validator's conflict scan sees, so every recorded read must be
// registered here before the transaction validates.
func (c *Controller) OnRead(t *txn.Transaction, id store.ObjectID, wts uint64) bool {
	if c.kind == BC {
		return true
	}
	if c.kind == TI {
		if _, dead := t.DoomState(); dead {
			return false
		}
		t.RaiseLow(wts + 1)
		if t.IntervalEmpty() {
			c.n.accessRestarts.Add(1)
			t.MarkDoomed(txn.Conflict)
			return false
		}
	}
	sh := c.objShardFor(id)
	sh.mu.Lock()
	os := sh.objects[id]
	if os != nil {
		if _, already := os.readers[t.ID]; already {
			// Re-registration: t has been in this object's conflict set
			// since its first read, so every writer accepted since then
			// adjusted t's interval. Nothing to re-check.
			sh.mu.Unlock()
			return true
		}
	}
	// First-time-registration guard: if a writer of this object was
	// accepted after t read it but before this registration, t missed
	// that writer's interval adjustment and its read may already be
	// stale. The overlay covers writers whose apply is still in flight;
	// the store's item timestamp covers writers that have fully applied
	// (reading it under the shard mutex orders it after any overlay
	// retirement). Dooming is conservative but the window only exists
	// under concurrency — sequentially the store matches wts exactly.
	if os != nil && (os.committedWrite > wts || os.committedDelete > wts) {
		sh.mu.Unlock()
		if t.MarkDoomed(txn.Conflict) {
			c.n.accessRestarts.Add(1)
		}
		return false
	}
	if _, dbwts, ok := c.db.Timestamps(id); !ok || dbwts > wts {
		sh.mu.Unlock()
		if t.MarkDoomed(txn.Conflict) {
			c.n.accessRestarts.Add(1)
		}
		return false
	}
	if os == nil {
		os = sh.ensure(id)
	}
	os.readers[t.ID] = t
	sh.mu.Unlock()
	return true
}

// OnWrite registers that t staged a write (or delete) of object id. It
// reports false if the transaction is now doomed. As with OnRead, the
// registration feeds later validators' conflict scans.
func (c *Controller) OnWrite(t *txn.Transaction, id store.ObjectID) bool {
	if c.kind == BC {
		return true
	}
	if c.kind == TI {
		if _, dead := t.DoomState(); dead {
			return false
		}
		rts, wts, del, ok := c.db.ReadInfo(id)
		t.RaiseLow(del + 1)
		if ok {
			t.RaiseLow(rts + 1)
			t.RaiseLow(wts + 1)
		}
		if t.IntervalEmpty() {
			c.n.accessRestarts.Add(1)
			t.MarkDoomed(txn.Conflict)
			return false
		}
	}
	sh := c.objShardFor(id)
	sh.mu.Lock()
	os := sh.ensure(id)
	os.writers[t.ID] = t
	sh.mu.Unlock()
	return true
}

// Validate atomically validates t and, on success, assigns its commit
// timestamp and serial (validation) order, adjusts conflicting active
// transactions, and applies its deferred writes to the database. The
// acceptance decision and all interval adjustments happen under the
// serial ticket; only the write phase itself runs outside it, covered
// by the committed-timestamp overlay until it completes.
//
// On failure (Result.OK == false) the engine must restart or abort t.
// On success the engine must restart every transaction in Result.Victims.
func (c *Controller) Validate(t *txn.Transaction) Result {
	c.n.validations.Add(1)

	if _, dead := t.DoomState(); dead {
		t.ClearDoom()
		c.n.selfRestarts.Add(1)
		return Result{}
	}

	switch c.kind {
	case BC:
		return c.validateBC(t)
	default:
		return c.validateInterval(t)
	}
}

// roScanRetries bounds the certification rescans the read-only fast
// path attempts before giving up on the fast path. Each retry only
// happens when a writer's acceptance window interleaved the scan, so
// under read-mostly load the first pass nearly always certifies.
const roScanRetries = 3

// ValidateReadOnly attempts to commit a read-only transaction on the
// snapshot fast path: no serial ticket, no serial order, no write phase
// — and therefore nothing for the group committer or mirror shipper to
// do. It reports (Result, true) when it reached a decision (accepted,
// with t.CommitTS set and t.SerialOrder zero, or rejected because t was
// already doomed) and (Result{}, false) when the fast path could not
// certify the snapshot, in which case the caller must fall back to full
// Validate (sound for a read-registered transaction; a transaction that
// skipped OnRead registration must instead restart into the registered
// path).
//
// Correctness under the interval protocols rests on three pieces:
//
//  1. snapTS — the largest write timestamp the transaction observed —
//     is its commit timestamp: it serializes directly after the newest
//     writer it read. Before certifying, every read item's store read
//     timestamp is raised to snapTS (a lock-free CAS-max), so any
//     writer of those items accepted afterwards is forced to serialize
//     above snapTS; the gap-spaced timestamp allocator can never
//     squeeze a later writer of a read item underneath the snapshot.
//  2. The certification scan proves no already-accepted writer
//     invalidates the snapshot: per read item, the committed-timestamp
//     overlay (covering accepted writes whose apply is still in
//     flight) must not exceed the observed write timestamp, and the
//     store's current version must still be exactly the one read —
//     overlay first, then store, so an apply retiring its overlay entry
//     between the two loads is caught by the store check.
//  3. The acceptance seqlock detects writers whose acceptance window
//     interleaved the scan (their overlay may have been published after
//     the scan passed that item): the scan only certifies if
//     validateSeq was even and unchanged across it, retrying a bounded
//     number of times otherwise.
//
// Committed fast-path transactions consume no timestamp slot and no
// serial: two read-only commits may share a timestamp with each other
// (they cannot observe one another) and with the writer at snapTS
// (they serialize immediately after it). Because no serial is
// consumed, skipping the shipped log leaves no gap in the cohort
// shipper's contiguous serial sequence.
func (c *Controller) ValidateReadOnly(t *txn.Transaction) (Result, bool) {
	if !t.ReadOnly() {
		return Result{}, false
	}
	if _, dead := t.DoomState(); dead {
		// Only read-registered transactions can be doomed; the decision
		// is the same one Validate would reach, without the ticket.
		t.ClearDoom()
		c.n.validations.Add(1)
		c.n.selfRestarts.Add(1)
		return Result{}, true
	}
	reads := t.ReadSet()
	var snapTS uint64
	for i := range reads {
		if reads[i].WriteTS > snapTS {
			snapTS = reads[i].WriteTS
		}
	}
	// Pin the snapshot before proving it: once these read timestamps are
	// installed, no future writer of a read item can serialize at or
	// below snapTS. If the fast path falls back after this, the raised
	// read timestamps are merely conservative (they constrain writers a
	// committed reader at snapTS would have constrained anyway).
	for i := range reads {
		c.db.ObserveRead(reads[i].ID, snapTS)
	}
	for attempt := 0; attempt < roScanRetries; attempt++ {
		s0 := c.validateSeq.Load()
		if s0&1 != 0 {
			continue // an acceptance window is open right now; rescan
		}
		current := true
		for i := range reads {
			re := &reads[i]
			sh := c.objShardFor(re.ID)
			sh.mu.Lock()
			os := sh.objects[re.ID]
			stale := os != nil && (os.committedWrite > re.WriteTS || os.committedDelete > re.WriteTS)
			sh.mu.Unlock()
			if stale {
				current = false
				break
			}
			if _, wts, ok := c.db.Timestamps(re.ID); !ok || wts != re.WriteTS {
				current = false
				break
			}
		}
		if !current {
			// Genuinely overwritten (or deleted) since the read. Full
			// interval validation may still salvage the transaction by
			// serializing it below the overwriter — that is DATI's whole
			// point — so this is a fallback, not a rejection.
			break
		}
		if c.validateSeq.Load() != s0 {
			continue // an acceptance interleaved the scan; rescan
		}
		t.CommitTS = snapTS
		t.SerialOrder = 0
		c.n.validations.Add(1)
		c.n.commits.Add(1)
		c.n.roFastCommits.Add(1)
		return Result{OK: true}, true
	}
	c.n.roFallbacks.Add(1)
	return Result{}, false
}

// validateBC is classic backward validation: reject the validating
// transaction if any item it read has been overwritten since.
func (c *Controller) validateBC(t *txn.Transaction) Result {
	c.mu.Lock()
	for _, re := range t.ReadSet() {
		// A committed overwrite or delete whose apply is still in
		// flight invalidates the read. The overlay is read before the
		// store: a writer that retires in between has already applied,
		// so the store read below sees it.
		sh := c.objShardFor(re.ID)
		sh.mu.Lock()
		os := sh.objects[re.ID]
		stale := os != nil && (os.committedWrite > re.WriteTS || os.committedDelete > re.WriteTS)
		sh.mu.Unlock()
		// A read-set item that has vanished was deleted since the read
		// — as much an invalidation as an overwrite.
		if !stale {
			_, wts, ok := c.db.Timestamps(re.ID)
			stale = !ok || wts != re.WriteTS
		}
		if stale {
			c.mu.Unlock()
			c.n.selfRestarts.Add(1)
			return Result{}
		}
	}
	ts := c.maxTS + 1
	c.validateSeq.Add(1) // acceptance window opens (odd)
	c.publishOverlay(t, ts)
	c.commitTicket(t, ts)
	c.validateSeq.Add(1) // acceptance window closes (even)
	c.mu.Unlock()

	c.applyAndRetire(t, ts)
	return Result{OK: true}
}

// validateInterval implements the shared interval machinery for DA, TI
// and DATI.
func (c *Controller) validateInterval(t *txn.Transaction) Result {
	// Serialize after every committed writer whose value t read. This
	// uses only the transaction's own read set, so it needs no lock.
	var lo uint64
	for _, re := range t.ReadSet() {
		if re.WriteTS+1 > lo {
			lo = re.WriteTS + 1
		}
	}

	c.mu.Lock()
	// A victim adjustment may have landed between the entry check and
	// taking the ticket; decisions made past this point are stable
	// because all dooming of other transactions happens under it.
	if _, dead := t.DoomState(); dead {
		c.mu.Unlock()
		t.ClearDoom()
		c.n.selfRestarts.Add(1)
		return Result{}
	}
	if c.tsFloor+1 > lo {
		lo = c.tsFloor + 1
	}
	// Serialize after every committed reader and writer of items t
	// writes. A transactionally deleted item keeps its deletion
	// timestamp as a tombstone: a re-creating writer must serialize
	// after the deletion (which itself serialized after every reader
	// and writer the item had). The overlay folds in committed
	// transactions whose write phase has not yet reached the store; it
	// is read first, so a transaction that retires from it in between
	// is already visible in the store.
	for _, id := range t.WriteIDs() {
		sh := c.objShardFor(id)
		sh.mu.Lock()
		if os := sh.objects[id]; os != nil {
			if os.committedRead+1 > lo {
				lo = os.committedRead + 1
			}
			if os.committedWrite+1 > lo {
				lo = os.committedWrite + 1
			}
			if os.committedDelete+1 > lo {
				lo = os.committedDelete + 1
			}
		}
		sh.mu.Unlock()
		rts, wts, del, ok := c.db.ReadInfo(id)
		if del+1 > lo {
			lo = del + 1
		}
		if ok {
			if rts+1 > lo {
				lo = rts + 1
			}
			if wts+1 > lo {
				lo = wts + 1
			}
		}
	}
	tlo, hi := t.Interval()
	if tlo > lo {
		lo = tlo
	}
	if lo > hi {
		c.mu.Unlock()
		c.n.selfRestarts.Add(1)
		return Result{}
	}

	ts, ok := c.pickTimestamp(lo, hi)
	if !ok {
		c.mu.Unlock()
		c.n.selfRestarts.Add(1)
		return Result{}
	}

	c.validateSeq.Add(1) // acceptance window opens (odd)
	victims := c.adjustConflicting(t, ts)
	c.commitTicket(t, ts)
	c.validateSeq.Add(1) // acceptance window closes (even)
	c.mu.Unlock()

	c.applyAndRetire(t, ts)
	return Result{OK: true, Victims: victims}
}

// adjustConflicting publishes t's acceptance at timestamp ts into the
// object overlay and performs the forward adjustment of conflicting
// active transactions. Conflicts are collected per object from the
// shard conflict sets, then applied per transaction so each conflicting
// active receives both of its direction constraints before its interval
// is checked for emptiness — the same order as a per-active scan of the
// full registry, at per-shard cost. Caller holds the ticket.
func (c *Controller) adjustConflicting(t *txn.Transaction, ts uint64) []*txn.Transaction {
	adj := c.adjTxns[:0]
	note := func(u *txn.Transaction, precede bool) {
		if u.ID == t.ID {
			return
		}
		i, seen := c.adjIdx[u.ID]
		if !seen {
			i = len(adj)
			adj = append(adj, adjEntry{u: u})
			c.adjIdx[u.ID] = i
		}
		if precede {
			adj[i].precede = true
		} else {
			adj[i].follow = true
		}
	}
	for _, id := range t.WriteIDs() {
		sh := c.objShardFor(id)
		sh.mu.Lock()
		os := sh.ensure(id)
		//rodain:allow lockorder (IsDelete is a pure predicate on the txn's own write set; it takes no locks)
		if t.IsDelete(id) {
			if ts > os.committedDelete {
				os.committedDelete = ts
			}
		} else {
			if ts > os.committedWrite {
				os.committedWrite = ts
			}
		}
		for _, u := range os.readers {
			note(u, true)
		}
		for _, u := range os.writers {
			note(u, false)
		}
		sh.mu.Unlock()
	}
	for _, re := range t.ReadSet() {
		sh := c.objShardFor(re.ID)
		sh.mu.Lock()
		os := sh.ensure(re.ID)
		if ts > os.committedRead {
			os.committedRead = ts
		}
		for _, u := range os.writers {
			note(u, false)
		}
		sh.mu.Unlock()
	}

	var victims []*txn.Transaction
	for i := range adj {
		u := adj[i].u
		delete(c.adjIdx, u.ID)
		if _, dead := u.DoomState(); dead {
			continue
		}
		if adj[i].precede && u.LowerHigh(ts-1) {
			c.n.intervalAdjusts.Add(1)
		}
		if adj[i].follow && u.RaiseLow(ts+1) {
			c.n.intervalAdjusts.Add(1)
		}
		if u.IntervalEmpty() && u.MarkDoomed(txn.Conflict) {
			c.n.victimRestarts.Add(1)
			victims = append(victims, u)
		}
	}
	c.adjTxns = adj
	return victims
}

// publishOverlay records t's acceptance at ts in the object overlay
// without adjusting anyone — the BC path, which registers no actives.
// Caller holds the ticket.
func (c *Controller) publishOverlay(t *txn.Transaction, ts uint64) {
	for _, id := range t.WriteIDs() {
		sh := c.objShardFor(id)
		sh.mu.Lock()
		os := sh.ensure(id)
		//rodain:allow lockorder (IsDelete is a pure predicate on the txn's own write set; it takes no locks)
		if t.IsDelete(id) {
			if ts > os.committedDelete {
				os.committedDelete = ts
			}
		} else {
			if ts > os.committedWrite {
				os.committedWrite = ts
			}
		}
		sh.mu.Unlock()
	}
	for _, re := range t.ReadSet() {
		sh := c.objShardFor(re.ID)
		sh.mu.Lock()
		os := sh.ensure(re.ID)
		if ts > os.committedRead {
			os.committedRead = ts
		}
		sh.mu.Unlock()
	}
}

// applyAndRetire runs the write phase outside the ticket, then retires
// t's overlay entries (the store's item timestamps now subsume them)
// and leaves the applying set that WithFrozen waits on.
func (c *Controller) applyAndRetire(t *txn.Transaction, ts uint64) {
	t.ApplyWrites(c.db)

	for _, id := range t.WriteIDs() {
		sh := c.objShardFor(id)
		sh.mu.Lock()
		if os := sh.objects[id]; os != nil {
			// Only retire our own publication: a later accepted writer
			// may have raised the overlay past ts, and its window is
			// still open.
			//rodain:allow lockorder (IsDelete is a pure predicate on the txn's own write set; it takes no locks)
			if t.IsDelete(id) {
				if os.committedDelete == ts {
					os.committedDelete = 0
				}
			} else if os.committedWrite == ts {
				os.committedWrite = 0
			}
			sh.freeIfIdle(id, os)
		}
		sh.mu.Unlock()
	}
	for _, re := range t.ReadSet() {
		sh := c.objShardFor(re.ID)
		sh.mu.Lock()
		if os := sh.objects[re.ID]; os != nil {
			if os.committedRead == ts {
				os.committedRead = 0
			}
			sh.freeIfIdle(re.ID, os)
		}
		sh.mu.Unlock()
	}

	c.mu.Lock()
	delete(c.applying, t.SerialOrder)
	if len(c.applying) == 0 {
		c.applyIdle.Broadcast()
	}
	c.mu.Unlock()
	c.n.commits.Add(1)
}

// tsGap is the spacing between freshly allocated commit timestamps.
// Fresh (upper-unconstrained) validations take gap-spaced slots so that a
// transaction which must later serialize *between* two committed ones —
// the overrun reader that interval adjustment saves from restarting —
// still finds a free integer in the gap.
const tsGap = 1 << 16

// pickTimestamp chooses a free timestamp in [lo, hi]. Upper-constrained
// transactions squeeze into the gap (earliest slot for DATI/TI, latest
// for DA); unconstrained ones take a fresh gap-spaced slot — the earliest
// feasible one for DATI/TI, the next after all issued timestamps
// (validation order) for DA. Caller holds the ticket.
//
// The fresh pick is O(1): a slot inside the run of issued slots jumps to
// the slot after the run, and only exceptions are stepped over one slot
// at a time. It returns the same slot as probing every slot would.
func (c *Controller) pickTimestamp(lo, hi uint64) (uint64, bool) {
	if hi == math.MaxUint64 {
		ts := nextGapSlot(lo)
		if c.kind == DA {
			if m := nextGapSlot(c.maxTS); m > ts {
				ts = m
			}
		}
		for {
			if c.inRun(ts) {
				ts = c.slotHi + tsGap
			} else if _, used := c.usedTS[ts]; used {
				ts += tsGap
			} else {
				return ts, true
			}
		}
	}
	if c.kind == DA {
		for ts := hi; ts >= lo; ts-- {
			if !c.used(ts) {
				return ts, true
			}
			if ts == 0 {
				break
			}
		}
		return 0, false
	}
	for ts := lo; ts <= hi; ts++ {
		if !c.used(ts) {
			return ts, true
		}
	}
	return 0, false
}

// inRun reports whether ts is a gap slot in the run [slotLo, slotHi].
func (c *Controller) inRun(ts uint64) bool {
	return c.slotHi != 0 && ts%tsGap == 0 && ts >= c.slotLo && ts <= c.slotHi
}

// used reports whether ts has been issued since the floor last rose.
func (c *Controller) used(ts uint64) bool {
	if c.inRun(ts) {
		return true
	}
	_, ok := c.usedTS[ts]
	return ok
}

// trimRun empties the run once the floor has reached its top: no
// timestamp at or below the floor is ever picked again, so the next
// fresh slot starts a new run rather than becoming an exception.
func (c *Controller) trimRun() {
	if c.slotHi <= c.tsFloor {
		c.slotLo, c.slotHi = 0, 0
	}
}

// nextGapSlot returns the smallest multiple of tsGap strictly above v.
func nextGapSlot(v uint64) uint64 { return (v/tsGap + 1) * tsGap }

// maxUsedTS bounds the exception set. When it fills, the floor rises to
// maxTS and the set (and the run below it) is cleared: every future
// timestamp must exceed the floor, so uniqueness holds without
// remembering old timestamps. Active transactions squeezed into gaps
// below the new floor restart — a rare, bounded hiccup traded for
// bounded memory on long-lived nodes. Fresh slots extend the run and
// never fill the set, so under the interval protocols it takes
// maxUsedTS squeezed commits to get here.
const maxUsedTS = 1 << 17

// commitTicket finalizes an accepted validation under the ticket:
// records the timestamp, assigns the serial order and adds it to the
// applying set. The write phase itself runs after the ticket is
// released.
func (c *Controller) commitTicket(t *txn.Transaction, ts uint64) {
	switch {
	case ts%tsGap == 0 && c.slotHi == 0:
		c.slotLo, c.slotHi = ts, ts
	case ts%tsGap == 0 && ts == c.slotHi+tsGap:
		c.slotHi = ts
	default:
		c.usedTS[ts] = struct{}{}
	}
	if ts > c.maxTS {
		c.maxTS = ts
	}
	if len(c.usedTS) >= maxUsedTS {
		c.usedTS = make(map[uint64]struct{})
		if c.maxTS > c.tsFloor {
			c.tsFloor = c.maxTS
		}
		c.trimRun()
	}
	c.nextSerial++
	t.CommitTS = ts
	t.SerialOrder = c.nextSerial
	c.applying[t.SerialOrder] = struct{}{}
}
