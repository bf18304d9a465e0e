// Package store implements the RODAIN main-memory object store: a flat
// collection of data items addressed by object id, each carrying the
// read/write timestamps that the optimistic concurrency-control protocols
// maintain. Transactions never write the store directly during their read
// phase — deferred writes live in the transaction's private workspace and
// are applied here only in the write phase, after validation.
//
// The store is hash-partitioned into power-of-two stripes. Writers
// (Apply, ApplyGroup, Put, deletes, snapshot loads) serialize on the
// stripe mutex exactly as before: multi-object operations acquire the
// stripes they need in ascending stripe order, which keeps them
// deadlock-free against each other, and a Snapshot remains a
// transaction-consistent point-in-time copy.
//
// Reads, however, take no lock at all on the hot path. Every item holds
// its current state in one immutable version (value + write timestamp +
// writer's serial + tombstone timestamp) behind an atomic pointer,
// installed copy-on-write by the write phase; the read timestamp sits
// beside the pointer as a CAS-max atomic so ObserveRead stays
// allocation-free. Each stripe additionally publishes an immutable
// id→item table through an atomic pointer (RCU style): the table is
// rebuilt and republished only on a structural change — insert, delete,
// snapshot load — which the paper's number-translation workload makes
// rare. Single-item reads therefore resolve to two or three atomic loads
// (one shared path, stripe.read, plus ReadInfo for validation). A reader
// that misses in its table compares the table's generation against the
// stripe's structural-change counter (a seqlock-flavoured check): equal
// means the miss is real, different means a structural change is in
// flight and the reader falls back to the locked legacy path for that
// one access.
//
// Values are immutable once installed: every update stores a fresh copy
// and never mutates an installed byte slice in place. This is what makes
// the zero-copy View/ViewMeta reads safe — a borrowed slice can never be
// concurrently overwritten, it can only go stale. Single-item reads stay
// linearizable (the version-pointer store is the linearization point);
// what the lock-free path gives up is multi-item group atomicity for
// readers that bypass the concurrency controller: a reader interleaving
// with an ApplyGroup may observe some of the group's items installed and
// others not yet. Transactional readers are unaffected — validation (or
// the read-only fast path's revalidation) catches exactly that window.
package store

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
)

// ObjectID identifies a data item in the database.
type ObjectID uint64

// Record is one data item in export form, used for snapshots and state
// transfer to a rejoining mirror.
type Record struct {
	ID      ObjectID
	Value   []byte
	WriteTS uint64
}

// Op is one element of a transactional write group: an insert/update
// (after image in Value) or a deletion (Delete true, Value ignored).
// Serial is the validation order of the commit the op belongs to; the
// installed version keeps it, so a reader learns which commit it saw.
type Op struct {
	ID     ObjectID
	Value  []byte
	Delete bool
	Serial uint64
}

// version is one immutable state of an item: the installed value, the
// commit timestamp and serial (validation order) of the writer that
// installed it, and — for an item that has been transactionally deleted —
// the deletion timestamp. A version is never mutated after it is stored
// into an item's pointer; writers install a fresh one. Readers therefore
// obtain (value, writeTS, serial, deletedTS) as one consistent unit from
// a single atomic load — no torn value/timestamp pairs. Loaded state
// (Put, LoadSnapshot) has serial 0.
type version struct {
	value     []byte
	writeTS   uint64
	serial    uint64
	deletedTS uint64 // nonzero: the item was deleted at this timestamp
}

// tombstone remembers a transactional deletion: its commit timestamp
// (which keeps older writes from resurrecting the item) and its serial.
type tombstone struct {
	ts, serial uint64
}

// item is one data item. The current version hangs off an atomic
// pointer; the read timestamp is a CAS-max atomic beside it (it
// constrains future writers but is independent of the value, and keeping
// it out of the version keeps ObserveRead allocation-free). An item
// reachable from a stale published table whose object has since been
// deleted carries a tombstone version, so even stale readers observe the
// deletion without locking.
type item struct {
	ver    atomic.Pointer[version]
	readTS atomic.Uint64 // largest commit timestamp of any validated reader
}

// live reports the item's current version, nil if it is tombstoned.
func (it *item) live() *version {
	v := it.ver.Load()
	if v == nil || v.deletedTS != 0 {
		return nil
	}
	return v
}

// roTable is a stripe's published, immutable id→item index. Both maps
// are frozen at publication: lock-free readers may look items up in them
// concurrently because nothing ever writes a published table.
type roTable struct {
	items   map[ObjectID]*item
	deleted map[ObjectID]tombstone
	gen     uint64 // structGen value this table reflects
}

// DefaultStripes is the stripe count used by New. Power of two; 64
// stripes keep the per-stripe mutexes effectively uncontended up to far
// more cores than a node realistically runs transaction workers on.
const DefaultStripes = 64

// stripe is one lock partition. The mutex serializes writers; readers go
// through tbl. items/deleted are the authoritative mutable maps, guarded
// by mu; tbl is their immutable published copy, rebuilt on structural
// changes only (value updates reuse the shared *item and need no
// republish).
type stripe struct {
	mu        sync.RWMutex
	items     map[ObjectID]*item
	deleted   map[ObjectID]tombstone
	epoch     uint64 // bumped under mu on every content mutation (checkpointer dirty test)
	structGen atomic.Uint64
	tbl       atomic.Pointer[roTable]
}

// Store is a main-memory object store safe for concurrent use.
// The zero value is not usable; call New.
type Store struct {
	stripes []stripe
	shift   uint // 64 - log2(len(stripes)); maps hashed ids to stripes
}

// New returns an empty store with DefaultStripes lock stripes.
func New() *Store { return newStriped(DefaultStripes) }

// newStriped returns an empty store with n (power of two) stripes.
// Stripe count is an internal tuning knob: the logical contents,
// Snapshot and Checksum of a store are identical for every n.
func newStriped(n int) *Store {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("store: stripe count %d is not a positive power of two", n))
	}
	s := &Store{stripes: make([]stripe, n), shift: 64}
	for nn := n; nn > 1; nn >>= 1 {
		s.shift--
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.items = make(map[ObjectID]*item)
		st.deleted = make(map[ObjectID]tombstone)
		// The published table never aliases the authoritative maps: those
		// are mutated in place under mu while readers walk the table.
		st.tbl.Store(&roTable{items: make(map[ObjectID]*item), deleted: make(map[ObjectID]tombstone)})
	}
	return s
}

// republish rebuilds the stripe's published table from the authoritative
// maps. Caller holds the stripe write lock and must have bumped
// structGen before mutating the maps (bump → mutate → republish is the
// order the lock-free miss check relies on). The published maps are
// fresh copies: after publication nothing writes them.
func (st *stripe) republish() {
	items := make(map[ObjectID]*item, len(st.items))
	for id, it := range st.items {
		items[id] = it
	}
	deleted := make(map[ObjectID]tombstone, len(st.deleted))
	for id, ts := range st.deleted {
		deleted[id] = ts
	}
	st.tbl.Store(&roTable{items: items, deleted: deleted, gen: st.structGen.Load()})
}

// read is the single-item read path every accessor but ReadInfo shares.
// It resolves id to its live item and current version (linearized at the
// version load). For a missing object it returns a nil version and the
// tombstone of the transactional deletion that removed it (zero if none).
// It takes no lock unless a structural change on the stripe is in
// flight; the version it returns is immutable, so callers clone or decode
// it without the lock.
func (st *stripe) read(id ObjectID) (*item, *version, tombstone) {
	tbl := st.tbl.Load()
	if it := tbl.items[id]; it != nil {
		if v := it.ver.Load(); v != nil {
			if v.deletedTS == 0 {
				return it, v, tombstone{}
			}
			// Tombstoned: the deletion is definitive even if the table is
			// stale — versions only move forward.
			return nil, nil, tombstone{ts: v.deletedTS, serial: v.serial}
		}
	} else if st.structGen.Load() == tbl.gen {
		// A miss in a table no structural change has overtaken is real.
		return nil, nil, tbl.deleted[id]
	}
	// An insert or delete may be in flight: only the locked maps can
	// answer.
	st.mu.RLock()
	it, v := st.items[id], (*version)(nil)
	if it != nil {
		v = it.live()
	}
	tomb := st.deleted[id]
	st.mu.RUnlock()
	if v == nil {
		return nil, nil, tomb
	}
	return it, v, tombstone{}
}

// stripeIndex hashes an object id to its stripe. Fibonacci hashing keeps
// strided id patterns (sequential keys, per-shard key spaces) spread
// evenly instead of piling onto a few stripes.
func (s *Store) stripeIndex(id ObjectID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> s.shift)
}

// StripeOf reports the stripe index id maps to in a store with n lock
// stripes (n must be a positive power of two). It is the same Fibonacci
// hash stripeIndex uses, exported so the checkpoint format can route a
// logged record to its stripe watermark without a Store in hand.
func StripeOf(id ObjectID, n int) int {
	shift := uint(64)
	for ; n > 1; n >>= 1 {
		shift--
	}
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> shift)
}

// NumStripes reports the store's lock-stripe count.
func (s *Store) NumStripes() int { return len(s.stripes) }

func (s *Store) stripeFor(id ObjectID) *stripe {
	return &s.stripes[s.stripeIndex(id)]
}

// Len reports the number of objects.
func (s *Store) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n += len(st.items)
		st.mu.RUnlock()
	}
	return n
}

// Get returns a copy of the object's value. It reports false if the
// object does not exist. The common case is two atomic loads plus the
// copy; only a read racing a structural change on its stripe touches the
// stripe lock, and even then the value is cloned after the lock is
// released (installed values are immutable, so the clone needs no lock).
func (s *Store) Get(id ObjectID) ([]byte, bool) {
	if _, v, _ := s.stripeFor(id).read(id); v != nil {
		return cloneBytes(v.value), true
	}
	return nil, false
}

// View returns the object's value without copying. The returned slice is
// owned by the store and MUST NOT be modified by the caller. Because
// installed values are never mutated in place, the slice stays readable
// indefinitely, but it no longer reflects the current database state
// once a later transaction overwrites the object — callers should decode
// and discard it. Use Get where the caller needs an owned copy.
func (s *Store) View(id ObjectID) ([]byte, bool) {
	if _, v, _ := s.stripeFor(id).read(id); v != nil {
		return v.value, true
	}
	return nil, false
}

// ViewMeta is View together with the item's read and write timestamps.
// (value, writeTS) come from one immutable version — a single atomic
// load — so the pair can never tear; readTS is an independently monotone
// atomic read beside it.
func (s *Store) ViewMeta(id ObjectID) (value []byte, readTS, writeTS uint64, ok bool) {
	if it, v, _ := s.stripeFor(id).read(id); v != nil {
		return v.value, it.readTS.Load(), v.writeTS, true
	}
	return nil, 0, 0, false
}

// ViewVersion is the transactional read: the value (borrowed, the View
// contract applies), its write timestamp and the serial of the commit
// that installed it. For a missing object it reports ok false with the
// serial of the transactional deletion that removed it (0 if none), so a
// reader that saw the absence also knows which commit it depends on.
func (s *Store) ViewVersion(id ObjectID) (value []byte, writeTS, serial uint64, ok bool) {
	_, v, tomb := s.stripeFor(id).read(id)
	if v == nil {
		return nil, 0, tomb.serial, false
	}
	return v.value, v.writeTS, v.serial, true
}

// Timestamps returns the item's read and write timestamps without copying
// the value.
func (s *Store) Timestamps(id ObjectID) (readTS, writeTS uint64, ok bool) {
	_, readTS, writeTS, ok = s.ViewMeta(id)
	return readTS, writeTS, ok
}

// ReadInfo returns the item's timestamps together with its tombstone
// timestamp — the copy-free read the validation path performs per
// write-set member. exists reports whether the item is present;
// deletedTS is meaningful either way. Lock-free in the common case; a
// racing structural change falls back to the stripe lock so the answer
// is never built from a half-published table.
func (s *Store) ReadInfo(id ObjectID) (readTS, writeTS, deletedTS uint64, exists bool) {
	st := s.stripeFor(id)
	tbl := st.tbl.Load()
	if it := tbl.items[id]; it != nil {
		if v := it.live(); v != nil {
			// Live item: its version is authoritative; the tombstone
			// entry (from a deletion before this item's re-creation) only
			// matters if the table is still current.
			if st.structGen.Load() == tbl.gen {
				return it.readTS.Load(), v.writeTS, tbl.deleted[id].ts, true
			}
		} else if v := it.ver.Load(); v != nil && v.deletedTS != 0 {
			// Tombstoned version: definitive even from a stale table.
			return 0, 0, v.deletedTS, false
		}
	} else if st.structGen.Load() == tbl.gen {
		return 0, 0, tbl.deleted[id].ts, false
	}
	st.mu.RLock()
	deletedTS = st.deleted[id].ts
	it, exists := st.items[id]
	if exists {
		if v := it.live(); v != nil {
			readTS, writeTS = it.readTS.Load(), v.writeTS
		} else {
			exists = false
		}
	}
	st.mu.RUnlock()
	return readTS, writeTS, deletedTS, exists
}

// Put inserts or replaces an object outside of any transaction (bulk
// load). Timestamps are reset to zero.
func (s *Store) Put(id ObjectID, value []byte) {
	st := s.stripeFor(id)
	st.mu.Lock()
	st.epoch++
	v := &version{value: cloneBytes(value)}
	if it, ok := st.items[id]; ok {
		it.ver.Store(v)
		it.readTS.Store(0)
	} else {
		it = &item{}
		it.ver.Store(v)
		st.structGen.Add(1)
		st.items[id] = it
		st.republish()
	}
	st.mu.Unlock()
}

// Apply installs one transactional write outside any commit group: the
// after image becomes the current value and the item's write timestamp
// advances to commitTS; the object is created if it does not exist. It
// is ApplyGroup of a single op with serial 0, for loaders and tests.
func (s *Store) Apply(id ObjectID, value []byte, commitTS uint64) {
	s.ApplyGroup([]Op{{ID: id, Value: value}}, commitTS)
}

// apply installs one write with the stripe lock held. Writes install in
// timestamp order regardless of arrival order: when validated write
// phases run concurrently, a transaction with a lower commit timestamp
// may reach the stripe after one with a higher timestamp, and its
// after image must not clobber the newer value (last-writer-wins by
// commitTS, mirroring applyDelete's tombstone check). An update of an
// existing item publishes one fresh version through the item's pointer —
// the structure is untouched, so no table rebuild happens on the
// steady-state write path.
func (st *stripe) apply(id ObjectID, value []byte, commitTS, serial uint64) {
	st.epoch++ // conservative: count guarded no-ops too; a spurious bump only costs a copy
	if st.deleted[id].ts > commitTS {
		return // deleted by a newer transaction; do not resurrect
	}
	it, ok := st.items[id]
	if !ok {
		it = &item{}
		it.ver.Store(&version{value: cloneBytes(value), writeTS: commitTS, serial: serial})
		st.structGen.Add(1)
		st.items[id] = it
		st.republish()
		return
	}
	if cur := it.ver.Load(); cur == nil || commitTS >= cur.writeTS {
		it.ver.Store(&version{value: cloneBytes(value), writeTS: commitTS, serial: serial})
	}
}

// ObserveRead records that a transaction with the given commit timestamp
// read the object, advancing the item's read timestamp. It is a
// lock-free CAS-max: the read timestamp is advisory metadata for
// validation (monotone, independent of the value), so it needs neither
// the stripe lock nor a fresh version.
func (s *Store) ObserveRead(id ObjectID, commitTS uint64) {
	it, _, _ := s.stripeFor(id).read(id)
	if it == nil {
		return
	}
	for {
		cur := it.readTS.Load()
		if commitTS <= cur {
			return
		}
		if it.readTS.CompareAndSwap(cur, commitTS) {
			return
		}
	}
}

// ApplyDelete installs one transactional deletion outside any commit
// group, as ApplyGroup of a single delete op with serial 0. Unlike
// Delete, it remembers the deletion timestamp as a tombstone so that a
// log replay applying groups out of timestamp order cannot resurrect the
// object with an older write. Tombstones are retained until the next
// LoadSnapshot — bounded in practice by the checkpoint cycle, which
// replaces the store contents and clears them.
func (s *Store) ApplyDelete(id ObjectID, commitTS uint64) {
	s.ApplyGroup([]Op{{ID: id, Delete: true}}, commitTS)
}

// applyDelete installs one deletion with the stripe lock held. The removed
// item's version is replaced with a tombstone version first, so readers
// holding a stale published table observe the deletion too.
func (st *stripe) applyDelete(id ObjectID, commitTS, serial uint64) {
	st.epoch++
	it, ok := st.items[id]
	if ok {
		if v := it.ver.Load(); v != nil && v.deletedTS == 0 && v.writeTS > commitTS {
			return // a newer write already superseded this deletion
		}
		it.ver.Store(&version{deletedTS: commitTS, serial: serial})
	}
	st.structGen.Add(1)
	delete(st.items, id)
	if commitTS > st.deleted[id].ts {
		st.deleted[id] = tombstone{ts: commitTS, serial: serial}
	}
	st.republish()
}

// ApplyGroup installs one committed transaction's writes and deletes as
// a single atomic step with respect to locked whole-store readers: every
// stripe the group touches is locked (in ascending stripe order, so
// concurrent groups and whole-store readers cannot deadlock) before the
// first update and released after the last, so a concurrent Snapshot
// sees either none or all of the group. Lock-free single-item readers
// observe each item's new version the moment it is stored — per-item
// linearizable, but a multi-read sequence can straddle the group; the
// concurrency controller's validation (and the read-only fast path's
// revalidation against the committed-write overlay) is what restores
// transaction-level atomicity for them. Ops are applied in slice order,
// so a group may write and then delete (or re-write) the same object
// with last-op-wins semantics. Each installed version (or tombstone)
// records its op's Serial.
func (s *Store) ApplyGroup(ops []Op, commitTS uint64) {
	switch len(ops) {
	case 0:
		return
	case 1: // single-object fast path: plain single-stripe locking
		st := s.stripeFor(ops[0].ID)
		st.mu.Lock()
		st.applyOp(&ops[0], commitTS)
		st.mu.Unlock()
		return
	}
	var touched uint64 // stripe bitmask; DefaultStripes and every test count fit in 64 bits
	if len(s.stripes) <= 64 {
		for i := range ops {
			touched |= 1 << uint(s.stripeIndex(ops[i].ID))
		}
		for i := range s.stripes {
			if touched&(1<<uint(i)) != 0 {
				s.stripes[i].mu.Lock()
			}
		}
	} else {
		touched = ^uint64(0)
		for i := range s.stripes {
			s.stripes[i].mu.Lock()
		}
	}
	for i := range ops {
		s.stripeFor(ops[i].ID).applyOp(&ops[i], commitTS)
	}
	if len(s.stripes) <= 64 {
		for i := range s.stripes {
			if touched&(1<<uint(i)) != 0 {
				s.stripes[i].mu.Unlock()
			}
		}
	} else {
		for i := range s.stripes {
			s.stripes[i].mu.Unlock()
		}
	}
}

// applyOp installs one op with the stripe lock held.
func (st *stripe) applyOp(op *Op, commitTS uint64) {
	if op.Delete {
		st.applyDelete(op.ID, commitTS, op.Serial)
	} else {
		st.apply(op.ID, op.Value, commitTS, op.Serial)
	}
}

// DeletedAt reports the tombstone timestamp for id (zero if never
// transactionally deleted).
func (s *Store) DeletedAt(id ObjectID) uint64 {
	st := s.stripeFor(id)
	tbl := st.tbl.Load()
	if st.structGen.Load() == tbl.gen {
		return tbl.deleted[id].ts
	}
	st.mu.RLock()
	ts := st.deleted[id].ts
	st.mu.RUnlock()
	return ts
}

// Delete removes an object. It reports whether the object existed.
func (s *Store) Delete(id ObjectID) bool {
	st := s.stripeFor(id)
	st.mu.Lock()
	it, ok := st.items[id]
	if ok {
		it.ver.Store(&version{deletedTS: ^uint64(0)}) // non-transactional removal: stale tables must still see it gone
		st.structGen.Add(1)
		delete(st.items, id)
		st.epoch++
		st.republish()
	}
	st.mu.Unlock()
	return ok
}

// rlockAll / runlockAll take every stripe read lock in ascending order —
// the whole-store consistent read point used by Snapshot, Checksum and
// IDs.
func (s *Store) rlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for i := range s.stripes {
		s.stripes[i].mu.RUnlock()
	}
}

// IDs returns all object ids in ascending order.
func (s *Store) IDs() []ObjectID {
	s.rlockAll()
	ids := make([]ObjectID, 0, s.lenLocked())
	for i := range s.stripes {
		for id := range s.stripes[i].items {
			ids = append(ids, id)
		}
	}
	s.runlockAll()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// lenLocked sums item counts; every stripe lock must be held.
func (s *Store) lenLocked() int {
	n := 0
	for i := range s.stripes {
		n += len(s.stripes[i].items)
	}
	return n
}

// Snapshot returns a consistent copy of the whole database in ascending
// id order, suitable for state transfer to a rejoining mirror node. All
// stripes are read-locked for the duration, so the copy is a single
// point in time: it contains every group applied before it and none
// applied after.
func (s *Store) Snapshot() []Record {
	s.rlockAll()
	recs := make([]Record, 0, s.lenLocked())
	for i := range s.stripes {
		for id, it := range s.stripes[i].items {
			if v := it.live(); v != nil {
				recs = append(recs, Record{ID: id, Value: cloneBytes(v.value), WriteTS: v.writeTS})
			}
		}
	}
	s.runlockAll()
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs
}

// StripeEpoch reports stripe i's change epoch: a counter bumped under
// the stripe lock on every content mutation (transactional applies,
// bulk loads, deletes, snapshot loads). Two equal readings with no
// mutation in between mean the stripe's contents are unchanged — the
// dirty-stripe test the incremental checkpointer uses. (ObserveRead is
// deliberately not a mutation: read-timestamp advances carry no
// recoverable state, exactly as before the lock-free read path.)
func (s *Store) StripeEpoch(i int) uint64 {
	st := &s.stripes[i]
	st.mu.RLock()
	e := st.epoch
	st.mu.RUnlock()
	return e
}

// SnapshotStripe copies stripe i alone — the fuzzy checkpointer's unit
// of work: only this stripe's lock is held, so commits touching other
// stripes proceed while the copy runs. The returned records are sorted
// by id and their epoch is the stripe's change epoch at the copy point.
//
// The Value slices are borrowed, not copied (the View contract):
// installed values are immutable, so the caller may encode them after
// the lock is released, which keeps the per-stripe pause to the map
// walk instead of the full value copy. Callers that mutate or retain
// them must clone.
func (s *Store) SnapshotStripe(i int) ([]Record, uint64) {
	st := &s.stripes[i]
	st.mu.RLock()
	recs := make([]Record, 0, len(st.items))
	for id, it := range st.items {
		if v := it.live(); v != nil {
			recs = append(recs, Record{ID: id, Value: v.value, WriteTS: v.writeTS})
		}
	}
	epoch := st.epoch
	st.mu.RUnlock()
	sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
	return recs, epoch
}

// LoadSnapshot replaces the store contents with the given records.
func (s *Store) LoadSnapshot(recs []Record) {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		// Tombstone every replaced item so stale published tables do not
		// resurrect pre-snapshot state for lock-free readers.
		for _, it := range st.items {
			it.ver.Store(&version{deletedTS: ^uint64(0)})
		}
		st.structGen.Add(1)
		st.items = make(map[ObjectID]*item)
		st.deleted = make(map[ObjectID]tombstone)
		st.epoch++
	}
	for _, r := range recs {
		st := s.stripeFor(r.ID)
		it := &item{}
		it.ver.Store(&version{value: cloneBytes(r.Value), writeTS: r.WriteTS})
		st.items[r.ID] = it
	}
	for i := range s.stripes {
		s.stripes[i].republish()
		s.stripes[i].mu.Unlock()
	}
}

// Checksum returns a CRC-32 over (id, value) pairs in ascending id order.
// Two stores holding the same logical database produce the same checksum
// regardless of stripe count; timestamps are deliberately excluded since
// a mirror rebuilt from logs may carry different read timestamps.
func (s *Store) Checksum() uint32 {
	s.rlockAll()
	defer s.runlockAll()
	ids := make([]ObjectID, 0, s.lenLocked())
	for i := range s.stripes {
		for id := range s.stripes[i].items {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, id := range ids {
		putUint64(buf[:], uint64(id))
		h.Write(buf[:])
		if v := s.stripeFor(id).items[id].live(); v != nil {
			h.Write(v.value)
		}
		h.Write([]byte{0xff}) // separator so (1,"ab")+(2,"") != (1,"a")+(2,"b")
	}
	return h.Sum32()
}

func (s *Store) String() string {
	return fmt.Sprintf("store{%d objects}", s.Len())
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
