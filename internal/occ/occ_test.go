package occ

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
)

func newController(k Kind) (*Controller, *store.Store) {
	db := store.New()
	for i := 0; i < 32; i++ {
		db.Put(store.ObjectID(i), []byte{0})
	}
	return NewController(k, db), db
}

func runSimple(t *testing.T, c *Controller, db *store.Store, id txn.ID, reads, writes []store.ObjectID) *txn.Transaction {
	t.Helper()
	tx := txn.New(id, txn.Firm, 0, txn.NoDeadline)
	c.Begin(tx)
	for _, r := range reads {
		v, ok := tx.Read(db, r)
		if !ok {
			t.Fatalf("read %d failed", r)
		}
		if wts, obs := tx.ObservedWriteTS(r); obs {
			c.OnRead(tx, r, wts)
		}
		_ = v
	}
	for _, w := range writes {
		tx.StageWrite(w, []byte{byte(id)})
		c.OnWrite(tx, w)
	}
	return tx
}

func TestCommitDisjointTransactions(t *testing.T) {
	for _, k := range []Kind{DATI, TI, DA, BC} {
		t.Run(k.String(), func(t *testing.T) {
			c, db := newController(k)
			t1 := runSimple(t, c, db, 1, []store.ObjectID{0, 1}, []store.ObjectID{2})
			t2 := runSimple(t, c, db, 2, []store.ObjectID{3, 4}, []store.ObjectID{5})
			r1 := c.Validate(t1)
			r2 := c.Validate(t2)
			if !r1.OK || !r2.OK {
				t.Fatalf("disjoint transactions must both commit: %v %v", r1.OK, r2.OK)
			}
			if t1.CommitTS == t2.CommitTS {
				t.Fatal("commit timestamps must be unique")
			}
			if t1.SerialOrder >= t2.SerialOrder {
				t.Fatalf("serial order must follow validation order: %d %d", t1.SerialOrder, t2.SerialOrder)
			}
			c.Finish(t1)
			c.Finish(t2)
			if c.ActiveCount() != 0 {
				t.Fatalf("ActiveCount = %d", c.ActiveCount())
			}
		})
	}
}

func TestBCRestartsOverwrittenReader(t *testing.T) {
	c, db := newController(BC)
	reader := runSimple(t, c, db, 1, []store.ObjectID{7}, nil)
	writer := runSimple(t, c, db, 2, nil, []store.ObjectID{7})
	if r := c.Validate(writer); !r.OK {
		t.Fatal("writer must commit")
	}
	if r := c.Validate(reader); r.OK {
		t.Fatal("OCC-BC must restart a reader whose item was overwritten")
	}
	st := c.Stats()
	if st.SelfRestarts != 1 || st.Commits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIntervalProtocolsSerializeReaderBeforeWriter(t *testing.T) {
	// The defining improvement over OCC-BC: a reader that was overrun by
	// a committed writer may still commit, serialized before the writer.
	for _, k := range []Kind{DATI, TI, DA} {
		t.Run(k.String(), func(t *testing.T) {
			c, db := newController(k)
			reader := runSimple(t, c, db, 1, []store.ObjectID{7}, nil)
			writer := runSimple(t, c, db, 2, nil, []store.ObjectID{7})
			if r := c.Validate(writer); !r.OK {
				t.Fatal("writer must commit")
			}
			r := c.Validate(reader)
			if !r.OK {
				t.Fatalf("%v should commit the overrun reader (backward-adjusted)", k)
			}
			if reader.CommitTS >= writer.CommitTS {
				t.Fatalf("reader ts %d must precede writer ts %d", reader.CommitTS, writer.CommitTS)
			}
		})
	}
}

func TestWriterFollowsCommittedReader(t *testing.T) {
	for _, k := range []Kind{DATI, TI, DA} {
		c, db := newController(k)
		reader := runSimple(t, c, db, 1, []store.ObjectID{3}, nil)
		if r := c.Validate(reader); !r.OK {
			t.Fatal("reader must commit")
		}
		writer := runSimple(t, c, db, 2, nil, []store.ObjectID{3})
		if r := c.Validate(writer); !r.OK {
			t.Fatal("writer must commit")
		}
		if writer.CommitTS <= reader.CommitTS {
			t.Fatalf("%v: writer ts %d must follow reader ts %d", k, writer.CommitTS, reader.CommitTS)
		}
	}
}

func TestVictimOnContradiction(t *testing.T) {
	// u reads an item t writes (u before t) and writes an item t reads
	// (u after t): u's interval empties when t validates.
	for _, k := range []Kind{DATI, DA} {
		t.Run(k.String(), func(t *testing.T) {
			c, db := newController(k)
			u := runSimple(t, c, db, 1, []store.ObjectID{1}, []store.ObjectID{2})
			tt := runSimple(t, c, db, 2, []store.ObjectID{2}, []store.ObjectID{1})
			r := c.Validate(tt)
			if !r.OK {
				t.Fatal("validating transaction must be accepted")
			}
			if len(r.Victims) != 1 || r.Victims[0].ID != u.ID {
				t.Fatalf("victims = %v", r.Victims)
			}
			if reason, dead := c.Doomed(u); !dead || reason != txn.Conflict {
				t.Fatalf("victim not doomed: %v %v", reason, dead)
			}
			// The doomed transaction is rejected at its own validation.
			if rv := c.Validate(u); rv.OK {
				t.Fatal("doomed transaction validated")
			}
		})
	}
}

func TestTIDetectsDoomAtAccessTime(t *testing.T) {
	c, db := newController(TI)
	u := runSimple(t, c, db, 1, []store.ObjectID{1}, nil) // u read obj 1
	tt := runSimple(t, c, db, 2, nil, []store.ObjectID{1})
	if r := c.Validate(tt); !r.OK {
		t.Fatal("writer must commit")
	}
	// u is now constrained to precede tt. Re-reading the item and
	// observing tt's value would force u after tt: contradiction,
	// detected at read time.
	v, ok := u.Read(db, 1)
	if !ok {
		t.Fatal("read failed")
	}
	_ = v
	wts, _ := u.ObservedWriteTS(1)
	if c.OnRead(u, 1, wts) {
		t.Fatal("OCC-TI should doom the reader at access time")
	}
	if c.Stats().AccessRestarts != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestDAAssignsLatestTimestamp(t *testing.T) {
	c, db := newController(DA)
	t1 := runSimple(t, c, db, 1, nil, []store.ObjectID{1})
	t2 := runSimple(t, c, db, 2, nil, []store.ObjectID{2})
	c.Validate(t1)
	c.Validate(t2)
	if t2.CommitTS != t1.CommitTS+tsGap {
		t.Fatalf("DA should assign gap-spaced validation-order timestamps: %d then %d", t1.CommitTS, t2.CommitTS)
	}
}

func TestReaderFitsBetweenTwoWriters(t *testing.T) {
	// A reader of version 1 that validates after writer 2 has committed
	// must land strictly between the two writers' timestamps.
	for _, k := range []Kind{DATI, TI, DA} {
		t.Run(k.String(), func(t *testing.T) {
			c, db := newController(k)
			w1 := runSimple(t, c, db, 1, nil, []store.ObjectID{1})
			if r := c.Validate(w1); !r.OK {
				t.Fatal("w1 rejected")
			}
			reader := runSimple(t, c, db, 2, []store.ObjectID{1}, nil)
			w2 := runSimple(t, c, db, 3, nil, []store.ObjectID{1})
			if r := c.Validate(w2); !r.OK {
				t.Fatal("w2 rejected")
			}
			if r := c.Validate(reader); !r.OK {
				t.Fatalf("%v: intermediate reader rejected", k)
			}
			if !(w1.CommitTS < reader.CommitTS && reader.CommitTS < w2.CommitTS) {
				t.Fatalf("%v: reader ts %d not between writers %d and %d",
					k, reader.CommitTS, w1.CommitTS, w2.CommitTS)
			}
		})
	}
}

func TestWriteWriteOrdering(t *testing.T) {
	for _, k := range []Kind{DATI, TI, DA, BC} {
		c, db := newController(k)
		a := runSimple(t, c, db, 1, nil, []store.ObjectID{9})
		b := runSimple(t, c, db, 2, nil, []store.ObjectID{9})
		ra := c.Validate(a)
		if !ra.OK {
			t.Fatalf("%v: first writer rejected", k)
		}
		// b may have become a victim (interval protocols adjust b to
		// follow a); if not doomed it must commit after a.
		if _, dead := c.Doomed(b); !dead {
			rb := c.Validate(b)
			if !rb.OK {
				t.Fatalf("%v: blind second writer rejected", k)
			}
			if b.CommitTS <= a.CommitTS {
				t.Fatalf("%v: write-write order violated: %d %d", k, a.CommitTS, b.CommitTS)
			}
			v, _ := db.Get(9)
			if v[0] != 2 {
				t.Fatalf("%v: later writer's value lost: %v", k, v)
			}
		}
	}
}

func TestParseKindAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{{"dati", DATI}, {"ti", TI}, {"da", DA}, {"bc", BC}, {"OCC-DATI", DATI}} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseKind(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind should reject unknown names")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Fatalf("String = %q", Kind(42).String())
	}
}

// --- Serializability property harness -------------------------------------

// histEntry records a committed transaction for post-hoc checking.
type histEntry struct {
	ts      uint64
	reads   []txn.ReadEntry
	writes  []store.ObjectID
	images  map[store.ObjectID][]byte // after images (model checker)
	deletes map[store.ObjectID]bool   // staged deletions (model checker)
}

// TestPropertySerializability drives random interleaved transactions
// through each protocol and verifies that the accepted history is
// serializable in commit-timestamp order: every committed read observed
// exactly the latest committed write with a smaller timestamp.
func TestPropertySerializability(t *testing.T) {
	for _, k := range []Kind{DATI, TI, DA, BC} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				checkSerializable(t, k, seed)
			}
		})
	}
}

type scriptedTxn struct {
	tx     *txn.Transaction
	script []scriptOp // remaining operations
	id     txn.ID
}

type scriptOp struct {
	read bool
	obj  store.ObjectID
}

func checkSerializable(t *testing.T, k Kind, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nObjects = 8 // small to force conflicts
	db := store.New()
	for i := 0; i < nObjects; i++ {
		db.Put(store.ObjectID(i), []byte{0})
	}
	c := NewController(k, db)

	var history []histEntry
	var nextID txn.ID
	newScripted := func() *scriptedTxn {
		nextID++
		nops := 2 + rng.Intn(5)
		s := &scriptedTxn{id: nextID}
		for i := 0; i < nops; i++ {
			s.script = append(s.script, scriptOp{
				read: rng.Intn(100) < 60,
				obj:  store.ObjectID(rng.Intn(nObjects)),
			})
		}
		s.tx = txn.New(s.id, txn.Firm, 0, txn.NoDeadline)
		c.Begin(s.tx)
		return s
	}

	live := make([]*scriptedTxn, 0, 6)
	for i := 0; i < 6; i++ {
		live = append(live, newScripted())
	}
	committed, aborted := 0, 0
	for steps := 0; steps < 3000 && committed < 120; steps++ {
		i := rng.Intn(len(live))
		s := live[i]
		restart := false
		if _, dead := c.Doomed(s.tx); dead {
			restart = true
		} else if len(s.script) == 0 {
			r := c.Validate(s.tx)
			if r.OK {
				history = append(history, histEntry{
					ts:     s.tx.CommitTS,
					reads:  append([]txn.ReadEntry(nil), s.tx.ReadSet()...),
					writes: append([]store.ObjectID(nil), s.tx.WriteIDs()...),
				})
				committed++
				c.Finish(s.tx)
				live[i] = newScripted()
				continue
			}
			restart = true
		} else {
			op := s.script[0]
			s.script = s.script[1:]
			if op.read {
				if _, ok := s.tx.Read(db, op.obj); ok {
					if wts, obs := s.tx.ObservedWriteTS(op.obj); obs {
						if !c.OnRead(s.tx, op.obj, wts) {
							restart = true
						}
					}
				}
			} else {
				s.tx.StageWrite(op.obj, []byte{byte(s.id), byte(s.id >> 8)})
				if !c.OnWrite(s.tx, op.obj) {
					restart = true
				}
			}
		}
		if restart {
			aborted++
			c.Finish(s.tx)
			s.tx.Abort(txn.Conflict)
			live[i] = newScripted()
		}
	}
	if committed < 20 {
		t.Fatalf("%v seed %d: only %d commits (%d aborts) — harness starved", k, seed, committed, aborted)
	}

	// Check 1: unique timestamps.
	seen := map[uint64]bool{}
	for _, h := range history {
		if seen[h.ts] {
			t.Fatalf("%v seed %d: duplicate commit timestamp %d", k, seed, h.ts)
		}
		seen[h.ts] = true
	}

	// Check 2: every committed read observed the latest committed write
	// with a smaller timestamp.
	writersOf := map[store.ObjectID][]uint64{}
	for _, h := range history {
		for _, w := range h.writes {
			writersOf[w] = append(writersOf[w], h.ts)
		}
	}
	for _, h := range history {
		for _, re := range h.reads {
			want := uint64(0) // initial load has write timestamp 0
			for _, wts := range writersOf[re.ID] {
				if wts < h.ts && wts > want {
					want = wts
				}
			}
			if re.WriteTS != want {
				t.Fatalf("%v seed %d: txn@ts=%d read obj %d written@%d, but latest earlier write is @%d — history not serializable",
					k, seed, h.ts, re.ID, re.WriteTS, want)
			}
			if re.WriteTS >= h.ts {
				t.Fatalf("%v seed %d: read from the future: read@%d ts=%d", k, seed, re.WriteTS, h.ts)
			}
		}
	}
}

// TestPropertyFinalStateMatchesTimestampReplay verifies that the store's
// final contents equal a replay of committed writes in timestamp order.
func TestPropertyFinalStateMatchesTimestampReplay(t *testing.T) {
	for _, k := range []Kind{DATI, TI, DA, BC} {
		rng := rand.New(rand.NewSource(99))
		db := store.New()
		for i := 0; i < 8; i++ {
			db.Put(store.ObjectID(i), []byte{0})
		}
		c := NewController(k, db)
		type commitRec struct {
			ts  uint64
			obj store.ObjectID
			val []byte
		}
		var commits []commitRec
		for n := 0; n < 200; n++ {
			tx := txn.New(txn.ID(n+1), txn.Firm, 0, txn.NoDeadline)
			c.Begin(tx)
			obj := store.ObjectID(rng.Intn(8))
			if _, ok := tx.Read(db, obj); ok {
				if wts, obs := tx.ObservedWriteTS(obj); obs {
					c.OnRead(tx, obj, wts)
				}
			}
			wobj := store.ObjectID(rng.Intn(8))
			val := []byte{byte(n), byte(n >> 8)}
			tx.StageWrite(wobj, val)
			c.OnWrite(tx, wobj)
			if _, dead := c.Doomed(tx); !dead {
				if r := c.Validate(tx); r.OK {
					commits = append(commits, commitRec{tx.CommitTS, wobj, val})
				}
			}
			c.Finish(tx)
		}
		replay := store.New()
		for i := 0; i < 8; i++ {
			replay.Put(store.ObjectID(i), []byte{0})
		}
		// Sort by timestamp and apply.
		for swapped := true; swapped; {
			swapped = false
			for i := 0; i+1 < len(commits); i++ {
				if commits[i].ts > commits[i+1].ts {
					commits[i], commits[i+1] = commits[i+1], commits[i]
					swapped = true
				}
			}
		}
		for _, cr := range commits {
			replay.Apply(cr.obj, cr.val, cr.ts)
		}
		if replay.Checksum() != db.Checksum() {
			t.Fatalf("%v: final state differs from timestamp-order replay", k)
		}
	}
}

// TestRestartCountsOrdering is the paper's qualitative claim: the
// interval protocols produce fewer transaction restarts than classic
// backward validation under the same contended workload.
func TestRestartCountsOrdering(t *testing.T) {
	restarts := map[Kind]int{}
	for _, k := range []Kind{DATI, TI, DA, BC} {
		total := 0
		for seed := int64(0); seed < 6; seed++ {
			total += countRestarts(t, k, seed)
		}
		restarts[k] = total
	}
	if restarts[DATI] >= restarts[BC] {
		t.Fatalf("OCC-DATI (%d restarts) should beat OCC-BC (%d) on contended load",
			restarts[DATI], restarts[BC])
	}
	t.Logf("restarts under identical load: DATI=%d TI=%d DA=%d BC=%d",
		restarts[DATI], restarts[TI], restarts[DA], restarts[BC])
}

func countRestarts(t *testing.T, k Kind, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := store.New()
	const nObjects = 6
	for i := 0; i < nObjects; i++ {
		db.Put(store.ObjectID(i), []byte{0})
	}
	c := NewController(k, db)
	aborted := 0
	live := make([]*scriptedTxn, 0, 8)
	var nextID txn.ID
	newScripted := func() *scriptedTxn {
		nextID++
		s := &scriptedTxn{id: nextID}
		for i := 0; i < 3+rng.Intn(3); i++ {
			s.script = append(s.script, scriptOp{read: rng.Intn(100) < 50, obj: store.ObjectID(rng.Intn(nObjects))})
		}
		s.tx = txn.New(s.id, txn.Firm, 0, txn.NoDeadline)
		c.Begin(s.tx)
		return s
	}
	for i := 0; i < 8; i++ {
		live = append(live, newScripted())
	}
	committed := 0
	for steps := 0; steps < 5000 && committed < 150; steps++ {
		i := rng.Intn(len(live))
		s := live[i]
		kill := false
		if _, dead := c.Doomed(s.tx); dead {
			kill = true
		} else if len(s.script) == 0 {
			if r := c.Validate(s.tx); r.OK {
				committed++
				c.Finish(s.tx)
				live[i] = newScripted()
				continue
			}
			kill = true
		} else {
			op := s.script[0]
			s.script = s.script[1:]
			if op.read {
				if _, ok := s.tx.Read(db, op.obj); ok {
					if wts, obs := s.tx.ObservedWriteTS(op.obj); obs {
						if !c.OnRead(s.tx, op.obj, wts) {
							kill = true
						}
					}
				}
			} else {
				s.tx.StageWrite(op.obj, []byte{byte(s.id)})
				if !c.OnWrite(s.tx, op.obj) {
					kill = true
				}
			}
		}
		if kill {
			aborted++
			c.Finish(s.tx)
			live[i] = newScripted()
		}
	}
	return aborted
}

func TestStatsSnapshot(t *testing.T) {
	c, db := newController(DATI)
	tx := runSimple(t, c, db, 1, []store.ObjectID{1}, []store.ObjectID{2})
	c.Validate(tx)
	st := c.Stats()
	if st.Validations != 1 || st.Commits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInsertOfNewObject(t *testing.T) {
	for _, k := range []Kind{DATI, TI, DA, BC} {
		c, db := newController(k)
		tx := txn.New(1, txn.Firm, 0, txn.NoDeadline)
		c.Begin(tx)
		tx.StageWrite(1000, []byte("fresh")) // beyond the preloaded range
		c.OnWrite(tx, 1000)
		if r := c.Validate(tx); !r.OK {
			t.Fatalf("%v: insert rejected", k)
		}
		v, ok := db.Get(1000)
		if !ok || string(v) != "fresh" {
			t.Fatalf("%v: insert not applied: %q %v", k, v, ok)
		}
	}
}

func TestBeginClearsStaleDoom(t *testing.T) {
	c, _ := newController(DATI)
	tx := txn.New(1, txn.Firm, 0, txn.NoDeadline)
	c.Begin(tx)
	tx.MarkDoomed(txn.Conflict)
	c.Begin(tx) // re-begin after restart must clear the doom marker
	if _, dead := c.Doomed(tx); dead {
		t.Fatal("Begin did not clear doom marker")
	}
}

func ExampleController() {
	db := store.New()
	db.Put(1, []byte("x=0"))
	c := NewController(DATI, db)
	tx := txn.New(1, txn.Firm, 0, txn.NoDeadline)
	c.Begin(tx)
	tx.Read(db, 1)
	tx.StageWrite(1, []byte("x=1"))
	r := c.Validate(tx)
	c.Finish(tx)
	fmt.Println(r.OK, tx.CommitTS)
	// Output: true 65536
}

func TestTimestampSetPruning(t *testing.T) {
	c, db := newController(DATI)
	// A reader of w1's version that validates after w2 squeezes between
	// the two writers' slots.
	w1 := runSimple(t, c, db, 1, nil, []store.ObjectID{1})
	if r := c.Validate(w1); !r.OK {
		t.Fatal("w1 rejected")
	}
	reader := runSimple(t, c, db, 2, []store.ObjectID{1}, []store.ObjectID{3})
	w2 := runSimple(t, c, db, 3, nil, []store.ObjectID{1})
	if r := c.Validate(w2); !r.OK {
		t.Fatal("w2 rejected")
	}
	// Simulate a long-lived controller: fill the exception set to one
	// below the cap with odd (never gap-slot) timestamps.
	c.mu.Lock()
	for i := uint64(0); i < maxUsedTS-1; i++ {
		c.usedTS[2*i+1] = struct{}{}
	}
	c.maxTS = 2*(maxUsedTS-1) - 1
	c.mu.Unlock()
	// The squeezed commit crosses the threshold and prunes.
	if r := c.Validate(reader); !r.OK {
		t.Fatal("squeezed commit at prune boundary failed")
	}
	if reader.CommitTS%tsGap == 0 || reader.CommitTS <= w1.CommitTS || reader.CommitTS >= w2.CommitTS {
		t.Fatalf("reader ts %d not squeezed between %d and %d", reader.CommitTS, w1.CommitTS, w2.CommitTS)
	}
	c.mu.Lock()
	pruned := len(c.usedTS) == 0
	floor := c.tsFloor
	c.mu.Unlock()
	if !pruned {
		t.Fatal("exception set not pruned")
	}
	if floor == 0 {
		t.Fatal("floor did not rise")
	}
	// Post-prune commits get unique timestamps above the floor.
	seen := map[uint64]bool{w1.CommitTS: true, w2.CommitTS: true, reader.CommitTS: true}
	for i := 0; i < 10; i++ {
		tx := runSimple(t, c, db, txn.ID(10+i), nil, []store.ObjectID{store.ObjectID(i % 3)})
		if r := c.Validate(tx); !r.OK {
			t.Fatal("post-prune commit failed")
		}
		if tx.CommitTS <= floor {
			t.Fatalf("post-prune ts %d not above floor %d", tx.CommitTS, floor)
		}
		if seen[tx.CommitTS] {
			t.Fatalf("duplicate timestamp %d after prune", tx.CommitTS)
		}
		seen[tx.CommitTS] = true
	}
}

// TestFreshCommitsExtendRun checks that a long run of unconstrained DATI
// commits over many ids keeps every issued slot in the contiguous run:
// the exception set stays empty, so no prune (and no mass restart)
// fires, and every timestamp is distinct.
func TestFreshCommitsExtendRun(t *testing.T) {
	const nIDs, nCommits = 30000, 200000
	db := store.New()
	for i := 0; i < nIDs; i++ {
		db.Put(store.ObjectID(i), []byte{0})
	}
	c := NewController(DATI, db)
	rng := rand.New(rand.NewSource(1))
	seen := make(map[uint64]struct{}, nCommits)
	for i := 0; i < nCommits; i++ {
		id := store.ObjectID(rng.Intn(nIDs))
		tx := txn.New(txn.ID(i+1), txn.Firm, 0, txn.NoDeadline)
		c.Begin(tx)
		tx.StageWrite(id, []byte{byte(i)})
		c.OnWrite(tx, id)
		if r := c.Validate(tx); !r.OK {
			t.Fatalf("commit %d rejected", i)
		}
		c.Finish(tx)
		if _, dup := seen[tx.CommitTS]; dup {
			t.Fatalf("commit %d: duplicate timestamp %d", i, tx.CommitTS)
		}
		seen[tx.CommitTS] = struct{}{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.usedTS) != 0 || c.tsFloor != 0 {
		t.Fatalf("exceptions=%d floor=%d, want 0 and 0", len(c.usedTS), c.tsFloor)
	}
	if c.slotLo != tsGap || c.slotHi != c.maxTS || c.maxTS != nCommits*tsGap {
		t.Fatalf("run [%d, %d], maxTS %d; want [%d, %d]", c.slotLo, c.slotHi, c.maxTS, tsGap, uint64(nCommits)*tsGap)
	}
}

// TestSeedRestartsRun checks that seeding the floor at or above the run
// starts a new run, so fresh slots after a takeover or recovery do not
// pile up as exceptions, and that a floor inside the run keeps it.
func TestSeedRestartsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed func(maxTS uint64) uint64
	}{
		{"at-top", func(m uint64) uint64 { return m }},
		{"above-top", func(m uint64) uint64 { return m + 12345 }},
		{"inside-run", func(m uint64) uint64 { return m - 3*tsGap }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, db := newController(DATI)
			for i := 0; i < 10; i++ {
				tx := runSimple(t, c, db, txn.ID(i+1), nil, []store.ObjectID{store.ObjectID(i)})
				if r := c.Validate(tx); !r.OK {
					t.Fatal("pre-seed commit rejected")
				}
				c.Finish(tx)
			}
			c.mu.Lock()
			floor := tc.seed(c.maxTS)
			c.mu.Unlock()
			c.Seed(100, floor)
			for i := 0; i < 1000; i++ {
				tx := runSimple(t, c, db, txn.ID(100+i), nil, []store.ObjectID{store.ObjectID(i % 32)})
				if r := c.Validate(tx); !r.OK {
					t.Fatalf("post-seed commit %d rejected", i)
				}
				c.Finish(tx)
				if tx.CommitTS <= floor {
					t.Fatalf("post-seed ts %d not above floor %d", tx.CommitTS, floor)
				}
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			if len(c.usedTS) != 0 {
				t.Fatalf("%d exceptions after post-seed fresh commits, want 0", len(c.usedTS))
			}
		})
	}
}
