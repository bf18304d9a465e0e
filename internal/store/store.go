// Package store implements the RODAIN main-memory object store: a flat
// collection of data items addressed by object id, each carrying the
// read/write timestamps that the optimistic concurrency-control protocols
// maintain. Transactions never write the store directly during their read
// phase — deferred writes live in the transaction's private workspace and
// are applied here only in the write phase, after validation.
//
// The store is hash-partitioned into power-of-two stripes. Writers
// (Apply, ApplyGroup, Put, deletes, snapshot loads) serialize on the
// stripe mutex: multi-object operations acquire the stripes they need in
// ascending stripe order, which keeps them deadlock-free against each
// other, and a Snapshot remains a transaction-consistent point-in-time
// copy.
//
// Reads take no lock. Every item holds its current state in one
// immutable version (value + write timestamp + writer's serial +
// tombstone) behind an atomic pointer, installed copy-on-write by the
// write phase; the read timestamp sits beside the pointer as a CAS-max
// atomic so ObserveRead stays allocation-free. Each stripe indexes its
// items in an open-addressing table published through an atomic
// pointer. A writer fills an empty slot with a fully built item, so an
// insert is amortised O(1); at a 3/4 load factor it publishes a copy
// twice the size and never writes the old table again. A reader loads
// the table pointer, probes to the id or to an empty slot and loads one
// version; slots only ever go from empty to filled, so a miss on the
// table it loaded is a real miss. A deletion is a gone version of the
// same item, so an item never leaves its table until LoadSnapshot
// replaces it.
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
	"cmp"
	"fmt"
	"hash/crc32"
	"slices"
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
// installed it (serial 0 for Put and LoadSnapshot), and the newest
// transactional deletion, which a re-created object carries forward.
// Writers install a fresh version and never mutate one, so a reader gets
// the whole state from a single atomic load — no torn pairs. A deleted
// object keeps its item with a gone version, whose tombstone keeps older
// writes (a log replay out of timestamp order) from resurrecting it.
type version struct {
	value   []byte
	writeTS uint64
	serial  uint64
	tomb    tombstone // the newest transactional deletion, zero if none
	gone    bool
}

// tombstone remembers a transactional deletion: its commit timestamp
// and its serial.
type tombstone struct {
	ts, serial uint64
}

// missing is the version every accessor sees for an id its stripe's
// table does not hold: never written since the last LoadSnapshot.
var missing = &version{gone: true}

// item is one data item: its id, its current version and its read
// timestamp, a CAS-max atomic kept out of the version so ObserveRead
// stays allocation-free. An item stays in its table until LoadSnapshot
// replaces the table; deletion and re-creation are versions of it.
type item struct {
	id     ObjectID
	ver    atomic.Pointer[version]
	readTS atomic.Uint64 // largest commit timestamp of any validated reader
}

// table is a stripe's id index: open addressing with linear probing over
// a power-of-two slot array. Writers, under the stripe mutex, only ever
// fill empty slots, and a table grows by publishing a copy twice the
// size, after which nothing writes the old one. A lock-free reader can
// therefore probe whichever table it loaded: an id is found wherever it
// was stored, and an empty slot before it means the id was not there
// yet when the reader passed.
type table struct {
	slots []atomic.Pointer[item]
	used  int  // filled slots, live or gone; guarded by the stripe mutex
	skip  uint // stripe-index bits, shifted off the id hash
	shift uint // 64 - log2(len(slots))
}

// minSlots is a stripe table's initial and smallest size.
const minSlots = 8

// newTable returns an empty table of a power-of-two size that holds n
// items under the 3/4 load factor.
func newTable(n int, skip uint) *table {
	size, shift := minSlots, uint(61)
	for size*3 < n*4 {
		size, shift = size*2, shift-1
	}
	return &table{slots: make([]atomic.Pointer[item], size), skip: skip, shift: shift}
}

// home is id's first probe slot: the Fibonacci hash bits just below the
// ones that chose the stripe, which every id in this stripe shares.
func (t *table) home(id ObjectID) uint64 {
	return (uint64(id) * 0x9E3779B97F4A7C15) << t.skip >> t.shift
}

// find returns id's item, nil if the table does not hold it.
func (t *table) find(id ObjectID) *item {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(id); ; i = (i + 1) & mask {
		it := t.slots[i].Load()
		if it == nil || it.id == id {
			return it
		}
	}
}

// add stores it, whose id the table does not hold, into its first empty
// slot. The caller holds the stripe mutex and has made room.
func (t *table) add(it *item) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(it.id)
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(it)
	t.used++
}

// each calls f for every item in the table. The caller holds the stripe
// lock.
func (t *table) each(f func(*item)) {
	for i := range t.slots {
		if it := t.slots[i].Load(); it != nil {
			f(it)
		}
	}
}

// itemBlock is how many items a stripe allocates at once. An item leaves
// its table only when LoadSnapshot replaces the table, so a block pins
// no dead item while its stripe uses it, and the allocator and the
// collector see one object per block instead of one per item.
const itemBlock = 32

// nextItem returns a fresh item holding (id, v), cut from *block, which
// is first refilled with itemBlock items if it is used up.
func nextItem(block *[]item, id ObjectID, v *version) *item {
	if len(*block) == 0 {
		*block = make([]item, itemBlock)
	}
	it := &(*block)[0]
	*block = (*block)[1:]
	it.id = id
	it.ver.Store(v)
	return it
}

// DefaultStripes is the stripe count used by New. Power of two; 64
// stripes keep the per-stripe mutexes effectively uncontended up to far
// more cores than a node realistically runs transaction workers on.
const DefaultStripes = 64

// stripe is one lock partition. The mutex serializes writers; readers go
// through tbl without it.
type stripe struct {
	mu    sync.RWMutex
	tbl   atomic.Pointer[table]
	live  int    // items whose version is not gone; guarded by mu
	spare []item // the unused rest of the stripe's item block; guarded by mu
	epoch uint64 // bumped under mu on every content mutation (checkpointer dirty test)
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
		s.stripes[i].tbl.Store(newTable(0, 64-s.shift))
	}
	return s
}

// read is the single-item read path every accessor shares: a table
// load, a probe and a version load, linearized at the version load (for
// a miss, at the empty slot). It takes no lock, and an id the table does
// not hold reads as missing, never as a nil version.
func (st *stripe) read(id ObjectID) (*item, *version) {
	if it := st.tbl.Load().find(id); it != nil {
		return it, it.ver.Load()
	}
	return nil, missing
}

// install stores v as id's version with the stripe lock held, into it
// or, when it is nil, into a new item added to the table. An add that
// would pass the 3/4 load factor first publishes a copy of the table at
// twice the size. A re-created object starts with a zero read timestamp,
// as a new one does.
func (st *stripe) install(id ObjectID, it *item, v *version) {
	was := missing
	if it == nil {
		it = nextItem(&st.spare, id, v)
		t := st.tbl.Load()
		if (t.used+1)*4 > len(t.slots)*3 {
			bigger := newTable(t.used+1, t.skip)
			t.each(bigger.add)
			st.tbl.Store(bigger)
			t = bigger
		}
		t.add(it)
	} else {
		if was = it.ver.Load(); was.gone && !v.gone {
			it.readTS.Store(0)
		}
		it.ver.Store(v)
	}
	switch {
	case was.gone && !v.gone:
		st.live++
	case !was.gone && v.gone:
		st.live--
	}
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
		n += st.live
		st.mu.RUnlock()
	}
	return n
}

// Get returns a copy of the object's value. It reports false if the
// object does not exist.
func (s *Store) Get(id ObjectID) ([]byte, bool) {
	if _, v := s.stripeFor(id).read(id); !v.gone {
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
	if _, v := s.stripeFor(id).read(id); !v.gone {
		return v.value, true
	}
	return nil, false
}

// ViewMeta is View together with the item's read and write timestamps.
// (value, writeTS) come from one immutable version — a single atomic
// load — so the pair can never tear; readTS is an independently monotone
// atomic read beside it.
func (s *Store) ViewMeta(id ObjectID) (value []byte, readTS, writeTS uint64, ok bool) {
	if it, v := s.stripeFor(id).read(id); !v.gone {
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
	_, v := s.stripeFor(id).read(id)
	if v.gone {
		return nil, 0, v.tomb.serial, false
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
// deletedTS is meaningful either way (a re-created object keeps the
// timestamp of its deletion). Lock-free, like every single-item read.
func (s *Store) ReadInfo(id ObjectID) (readTS, writeTS, deletedTS uint64, exists bool) {
	it, v := s.stripeFor(id).read(id)
	if v.gone {
		return 0, 0, v.tomb.ts, false
	}
	return it.readTS.Load(), v.writeTS, v.tomb.ts, true
}

// Put inserts or replaces an object outside of any transaction (bulk
// load). Timestamps are reset to zero; a transactional deletion's
// tombstone stays.
func (s *Store) Put(id ObjectID, value []byte) {
	st := s.stripeFor(id)
	st.mu.Lock()
	st.epoch++
	it, cur := st.read(id)
	st.install(id, it, &version{value: cloneBytes(value), tomb: cur.tomb})
	if it != nil {
		it.readTS.Store(0)
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
// commitTS), nor bring back an object a newer transaction deleted. An
// update of an existing item publishes one fresh version through the
// item's pointer and leaves the table alone.
func (st *stripe) apply(id ObjectID, value []byte, commitTS, serial uint64) {
	st.epoch++ // conservative: count guarded no-ops too; a spurious bump only costs a copy
	it, cur := st.read(id)
	if cur.tomb.ts > commitTS || !cur.gone && cur.writeTS > commitTS {
		return
	}
	st.install(id, it, &version{value: cloneBytes(value), writeTS: commitTS, serial: serial, tomb: cur.tomb})
}

// ObserveRead records that a transaction with the given commit timestamp
// read the object, advancing the item's read timestamp. It is a
// lock-free CAS-max: the read timestamp is advisory metadata for
// validation (monotone, independent of the value), so it needs neither
// the stripe lock nor a fresh version.
func (s *Store) ObserveRead(id ObjectID, commitTS uint64) {
	it, v := s.stripeFor(id).read(id)
	if v.gone {
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

// applyDelete installs one deletion with the stripe lock held: a gone
// version whose tombstone is the newer of the old one and this deletion.
// A deletion older than the live version is a no-op.
func (st *stripe) applyDelete(id ObjectID, commitTS, serial uint64) {
	st.epoch++
	it, cur := st.read(id)
	if !cur.gone && cur.writeTS > commitTS {
		return // a newer write already superseded this deletion
	}
	tomb := cur.tomb
	if commitTS > tomb.ts {
		tomb = tombstone{ts: commitTS, serial: serial}
	}
	st.install(id, it, &version{tomb: tomb, gone: true})
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
// records its op's Serial, and a copy of its op's Value: the caller may
// reuse the values' memory once ApplyGroup returns.
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
	_, v := s.stripeFor(id).read(id)
	return v.tomb.ts
}

// Delete removes an object. It reports whether the object existed.
func (s *Store) Delete(id ObjectID) bool {
	st := s.stripeFor(id)
	st.mu.Lock()
	it, cur := st.read(id)
	ok := !cur.gone
	if ok {
		st.install(id, it, &version{tomb: cur.tomb, gone: true})
		st.epoch++
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

// appendLive appends the stripe's live objects to recs, values borrowed;
// the stripe lock must be held.
func (st *stripe) appendLive(recs []Record) []Record {
	st.tbl.Load().each(func(it *item) {
		if v := it.ver.Load(); !v.gone {
			recs = append(recs, Record{ID: it.id, Value: v.value, WriteTS: v.writeTS})
		}
	})
	return recs
}

// liveRecords returns every live object in ascending id order, values
// borrowed, under every stripe read lock: one point in time.
func (s *Store) liveRecords() []Record {
	s.rlockAll()
	recs := make([]Record, 0, s.lenLocked())
	for i := range s.stripes {
		recs = s.stripes[i].appendLive(recs)
	}
	s.runlockAll()
	sortRecords(recs)
	return recs
}

// IDs returns all object ids in ascending order.
func (s *Store) IDs() []ObjectID {
	recs := s.liveRecords()
	ids := make([]ObjectID, len(recs))
	for i := range recs {
		ids[i] = recs[i].ID
	}
	return ids
}

// lenLocked sums live counts; every stripe lock must be held.
func (s *Store) lenLocked() int {
	n := 0
	for i := range s.stripes {
		n += s.stripes[i].live
	}
	return n
}

// Snapshot returns a consistent copy of the whole database in ascending
// id order, suitable for state transfer to a rejoining mirror node. All
// stripes are read-locked while it is taken, so the copy is a single
// point in time: it contains every group applied before it and none
// applied after.
func (s *Store) Snapshot() []Record {
	recs := s.liveRecords()
	for i := range recs {
		recs[i].Value = cloneBytes(recs[i].Value)
	}
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
// stripes proceed while the copy runs. The records come in table order,
// which is unspecified (nothing that loads an image depends on it, and an
// id appears once); their epoch is the stripe's change epoch at the copy
// point.
//
// The Value slices are borrowed, not copied (the View contract):
// installed values are immutable, so the caller may encode them after
// the lock is released, which keeps the per-stripe pause to the table
// walk instead of the full value copy. Callers that mutate or retain
// them must clone.
func (s *Store) SnapshotStripe(i int) ([]Record, uint64) {
	st := &s.stripes[i]
	st.mu.RLock()
	recs := st.appendLive(make([]Record, 0, st.live))
	epoch := st.epoch
	st.mu.RUnlock()
	return recs, epoch
}

// LoadSnapshot replaces the store contents with the given records and
// clears every tombstone. Each stripe gets a fresh table sized for its
// records. A reader still probing a replaced table sees the state just
// before the load, which nothing writes any more.
func (s *Store) LoadSnapshot(recs []Record) {
	counts := make([]int, len(s.stripes))
	for i := range recs {
		counts[s.stripeIndex(recs[i].ID)]++
	}
	tables := make([]*table, len(s.stripes))
	blocks := make([][]item, len(s.stripes))
	for i := range tables {
		tables[i] = newTable(counts[i], 64-s.shift)
		blocks[i] = make([]item, counts[i])
	}
	for _, r := range recs {
		i := s.stripeIndex(r.ID)
		v := &version{value: cloneBytes(r.Value), writeTS: r.WriteTS}
		if it := tables[i].find(r.ID); it != nil {
			it.ver.Store(v) // a repeated id: the last record wins
			continue
		}
		tables[i].add(nextItem(&blocks[i], r.ID, v))
	}
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.tbl.Store(tables[i])
		st.live = tables[i].used // every item of a fresh table is live
		st.spare = blocks[i]
		st.epoch++
		st.mu.Unlock()
	}
}

// Checksum returns a CRC-32 over (id, value) pairs in ascending id order.
// Two stores holding the same logical database produce the same checksum
// regardless of stripe count; timestamps are deliberately excluded since
// a mirror rebuilt from logs may carry different read timestamps.
func (s *Store) Checksum() uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, r := range s.liveRecords() {
		putUint64(buf[:], uint64(r.ID))
		h.Write(buf[:])
		h.Write(r.Value)
		h.Write([]byte{0xff}) // separator so (1,"ab")+(2,"") != (1,"a")+(2,"b")
	}
	return h.Sum32()
}

func (s *Store) String() string {
	return fmt.Sprintf("store{%d objects}", s.Len())
}

func sortRecords(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.ID, b.ID) })
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
