package occ

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
)

// refController is the pre-sharding controller, kept verbatim as the
// reference model: one global mutex, a flat active map scanned per
// validation, doom markers in a map, and the write phase applied inside
// the critical section. The sharded controller must be observably
// indistinguishable from it under any sequential schedule.
type refController struct {
	kind Kind
	db   *store.Store

	mu         sync.Mutex
	active     map[txn.ID]*txn.Transaction
	doomed     map[txn.ID]txn.AbortReason
	usedTS     map[uint64]struct{}
	maxTS      uint64
	tsFloor    uint64
	nextSerial uint64
	stats      Stats
}

func newRefController(kind Kind, db *store.Store) *refController {
	return &refController{
		kind:   kind,
		db:     db,
		active: make(map[txn.ID]*txn.Transaction),
		doomed: make(map[txn.ID]txn.AbortReason),
		usedTS: make(map[uint64]struct{}),
	}
}

func (c *refController) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *refController) ActiveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.active)
}

func (c *refController) LastSerial() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSerial
}

func (c *refController) Begin(t *txn.Transaction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.active[t.ID] = t
	delete(c.doomed, t.ID)
}

func (c *refController) Finish(t *txn.Transaction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.active, t.ID)
	delete(c.doomed, t.ID)
}

func (c *refController) Doomed(t *txn.Transaction) (txn.AbortReason, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.doomed[t.ID]
	return r, ok
}

func (c *refController) OnRead(t *txn.Transaction, id store.ObjectID, wts uint64) bool {
	if c.kind != TI {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dead := c.doomed[t.ID]; dead {
		return false
	}
	t.RaiseLow(wts + 1)
	if t.IntervalEmpty() {
		c.stats.AccessRestarts++
		c.doomed[t.ID] = txn.Conflict
		return false
	}
	return true
}

func (c *refController) OnWrite(t *txn.Transaction, id store.ObjectID) bool {
	if c.kind != TI {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dead := c.doomed[t.ID]; dead {
		return false
	}
	rts, wts, del, ok := c.db.ReadInfo(id)
	t.RaiseLow(del + 1)
	if ok {
		t.RaiseLow(rts + 1)
		t.RaiseLow(wts + 1)
	}
	if t.IntervalEmpty() {
		c.stats.AccessRestarts++
		c.doomed[t.ID] = txn.Conflict
		return false
	}
	return true
}

func (c *refController) Validate(t *txn.Transaction) Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Validations++

	if _, dead := c.doomed[t.ID]; dead {
		delete(c.doomed, t.ID)
		c.stats.SelfRestarts++
		return Result{}
	}

	switch c.kind {
	case BC:
		return c.validateBC(t)
	default:
		return c.validateInterval(t)
	}
}

func (c *refController) validateBC(t *txn.Transaction) Result {
	for _, re := range t.ReadSet() {
		_, wts, ok := c.db.Timestamps(re.ID)
		if !ok || wts != re.WriteTS {
			c.stats.SelfRestarts++
			return Result{}
		}
	}
	ts := c.maxTS + 1
	c.commitLocked(t, ts)
	return Result{OK: true}
}

func (c *refController) validateInterval(t *txn.Transaction) Result {
	lo, hi := t.Interval()
	if c.tsFloor+1 > lo {
		lo = c.tsFloor + 1
	}
	for _, re := range t.ReadSet() {
		if re.WriteTS+1 > lo {
			lo = re.WriteTS + 1
		}
	}
	for _, id := range t.WriteIDs() {
		rts, wts, del, ok := c.db.ReadInfo(id)
		if del+1 > lo {
			lo = del + 1
		}
		if !ok {
			continue
		}
		if rts+1 > lo {
			lo = rts + 1
		}
		if wts+1 > lo {
			lo = wts + 1
		}
	}
	if lo > hi {
		c.stats.SelfRestarts++
		return Result{}
	}

	ts, ok := c.pickTimestamp(lo, hi)
	if !ok {
		c.stats.SelfRestarts++
		return Result{}
	}

	var victims []*txn.Transaction
	for _, u := range c.active {
		if u.ID == t.ID {
			continue
		}
		if _, dead := c.doomed[u.ID]; dead {
			continue
		}
		precede, follow := refConflict(t, u)
		if !precede && !follow {
			continue
		}
		ulo, uhi := u.Interval()
		if precede && ts-1 < uhi {
			uhi = ts - 1
			c.stats.IntervalAdjusts++
		}
		if follow && ts+1 > ulo {
			ulo = ts + 1
			c.stats.IntervalAdjusts++
		}
		u.SetInterval(ulo, uhi)
		if ulo > uhi {
			c.doomed[u.ID] = txn.Conflict
			c.stats.VictimRestarts++
			victims = append(victims, u)
		}
	}

	c.commitLocked(t, ts)
	return Result{OK: true, Victims: victims}
}

func refConflict(t, u *txn.Transaction) (precede, follow bool) {
	for _, id := range t.WriteIDs() {
		if u.ReadsObject(id) {
			precede = true
		}
		if u.WritesObject(id) {
			follow = true
		}
		if precede && follow {
			return
		}
	}
	for _, re := range t.ReadSet() {
		if u.WritesObject(re.ID) {
			follow = true
			if precede {
				return
			}
		}
	}
	return
}

func (c *refController) pickTimestamp(lo, hi uint64) (uint64, bool) {
	if hi == math.MaxUint64 {
		ts := nextGapSlot(lo)
		if c.kind == DA {
			if m := nextGapSlot(c.maxTS); m > ts {
				ts = m
			}
		}
		for {
			if _, used := c.usedTS[ts]; !used {
				return ts, true
			}
			ts += tsGap
		}
	}
	if c.kind == DA {
		for ts := hi; ts >= lo; ts-- {
			if _, used := c.usedTS[ts]; !used {
				return ts, true
			}
			if ts == 0 {
				break
			}
		}
		return 0, false
	}
	for ts := lo; ts <= hi; ts++ {
		if _, used := c.usedTS[ts]; !used {
			return ts, true
		}
	}
	return 0, false
}

func (c *refController) commitLocked(t *txn.Transaction, ts uint64) {
	c.usedTS[ts] = struct{}{}
	if ts > c.maxTS {
		c.maxTS = ts
	}
	if len(c.usedTS) >= maxUsedTS {
		c.usedTS = make(map[uint64]struct{})
		if c.maxTS > c.tsFloor {
			c.tsFloor = c.maxTS
		}
	}
	c.nextSerial++
	t.CommitTS = ts
	t.SerialOrder = c.nextSerial
	t.ApplyWrites(c.db)
	c.stats.Commits++
}

// --- Sequential equivalence property --------------------------------------

// eqPair drives one logical transaction against both controllers: a
// against the sharded implementation, b against the reference.
type eqPair struct {
	a, b   *txn.Transaction
	script []eqOp
}

type eqOp struct {
	kind int // 0 read, 1 write, 2 delete
	obj  store.ObjectID
}

// TestPropertyEquivalenceWithReference drives identical random
// sequential schedules through the sharded controller and the retained
// single-mutex reference, for every protocol, and requires every
// observable — operation return values, doom reports, commit
// timestamps, serial orders, victim sets, statistics, and the final
// database state — to match exactly. Run it under -race to also catch
// unsynchronized internal state.
func TestPropertyEquivalenceWithReference(t *testing.T) {
	for _, k := range []Kind{DATI, TI, DA, BC} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				checkEquivalence(t, k, seed, 10, 150)
			}
			// One long schedule: fresh commits extend the run of issued
			// slots far past its start while interval adjustments keep
			// squeezing commits between slots (the exception set).
			if squeezed := checkEquivalence(t, k, 100, 30, 2000); squeezed == 0 {
				t.Fatalf("%v: long schedule produced no squeezed commit", k)
			}
		})
	}
}

// checkEquivalence runs one random schedule of up to wantCommits commits
// over nObjects objects and reports how many commits took a timestamp
// off the tsGap grid (squeezed between issued ones).
func checkEquivalence(t *testing.T, k Kind, seed int64, nObjects, wantCommits int) (squeezed int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dbA := store.New()
	dbB := store.New()
	for i := 0; i < nObjects; i++ {
		dbA.Put(store.ObjectID(i), []byte{0})
		dbB.Put(store.ObjectID(i), []byte{0})
	}
	ctl := NewController(k, dbA)
	ref := newRefController(k, dbB)

	var nextID txn.ID
	newPair := func() *eqPair {
		nextID++
		p := &eqPair{
			a: txn.New(nextID, txn.Firm, 0, txn.NoDeadline),
			b: txn.New(nextID, txn.Firm, 0, txn.NoDeadline),
		}
		for i := 0; i < 2+rng.Intn(5); i++ {
			kind := 0
			switch r := rng.Intn(100); {
			case r < 55:
				kind = 0
			case r < 90:
				kind = 1
			default:
				kind = 2
			}
			p.script = append(p.script, eqOp{kind: kind, obj: store.ObjectID(rng.Intn(nObjects))})
		}
		ctl.Begin(p.a)
		ref.Begin(p.b)
		return p
	}

	live := make([]*eqPair, 0, 6)
	for i := 0; i < 6; i++ {
		live = append(live, newPair())
	}
	committed := 0
	for steps := 0; steps < 30*wantCommits && committed < wantCommits; steps++ {
		i := rng.Intn(len(live))
		p := live[i]
		retire := false
		ra, da := ctl.Doomed(p.a)
		rb, db := ref.Doomed(p.b)
		if da != db || ra != rb {
			t.Fatalf("%v seed %d step %d: Doomed diverged: sharded=(%v,%v) ref=(%v,%v)",
				k, seed, steps, ra, da, rb, db)
		}
		switch {
		case da:
			retire = true
		case len(p.script) == 0:
			resA := ctl.Validate(p.a)
			resB := ref.Validate(p.b)
			if resA.OK != resB.OK {
				t.Fatalf("%v seed %d step %d: Validate OK diverged: %v vs %v", k, seed, steps, resA.OK, resB.OK)
			}
			if resA.OK {
				if p.a.CommitTS != p.b.CommitTS || p.a.SerialOrder != p.b.SerialOrder {
					t.Fatalf("%v seed %d step %d: commit diverged: ts %d/%d serial %d/%d",
						k, seed, steps, p.a.CommitTS, p.b.CommitTS, p.a.SerialOrder, p.b.SerialOrder)
				}
				if va, vb := victimIDs(resA), victimIDs(resB); va != vb {
					t.Fatalf("%v seed %d step %d: victim sets diverged: %s vs %s", k, seed, steps, va, vb)
				}
				committed++
				if p.a.CommitTS%tsGap != 0 {
					squeezed++
				}
			}
			retire = true
		default:
			op := p.script[0]
			p.script = p.script[1:]
			switch op.kind {
			case 0:
				va, okA := p.a.Read(dbA, op.obj)
				vb, okB := p.b.Read(dbB, op.obj)
				if okA != okB || !bytes.Equal(va, vb) {
					t.Fatalf("%v seed %d step %d: Read(%d) diverged: (%q,%v) vs (%q,%v)",
						k, seed, steps, op.obj, va, okA, vb, okB)
				}
				wtsA, obsA := p.a.ObservedWriteTS(op.obj)
				wtsB, obsB := p.b.ObservedWriteTS(op.obj)
				if obsA != obsB || wtsA != wtsB {
					t.Fatalf("%v seed %d step %d: observed wts diverged", k, seed, steps)
				}
				if obsA {
					ba := ctl.OnRead(p.a, op.obj, wtsA)
					bb := ref.OnRead(p.b, op.obj, wtsB)
					if ba != bb {
						t.Fatalf("%v seed %d step %d: OnRead diverged: %v vs %v", k, seed, steps, ba, bb)
					}
					retire = !ba
				}
			case 1:
				val := []byte{byte(p.a.ID), byte(steps), byte(steps >> 8)}
				p.a.StageWrite(op.obj, val)
				p.b.StageWrite(op.obj, val)
				ba := ctl.OnWrite(p.a, op.obj)
				bb := ref.OnWrite(p.b, op.obj)
				if ba != bb {
					t.Fatalf("%v seed %d step %d: OnWrite diverged: %v vs %v", k, seed, steps, ba, bb)
				}
				retire = !ba
			case 2:
				p.a.StageDelete(op.obj)
				p.b.StageDelete(op.obj)
				ba := ctl.OnWrite(p.a, op.obj)
				bb := ref.OnWrite(p.b, op.obj)
				if ba != bb {
					t.Fatalf("%v seed %d step %d: OnWrite(delete) diverged: %v vs %v", k, seed, steps, ba, bb)
				}
				retire = !ba
			}
		}
		if retire {
			ctl.Finish(p.a)
			ref.Finish(p.b)
			live[i] = newPair()
		}
	}
	if committed < 20 {
		t.Fatalf("%v seed %d: only %d commits — harness starved", k, seed, committed)
	}
	for _, p := range live {
		ctl.Finish(p.a)
		ref.Finish(p.b)
	}

	if sa, sb := ctl.Stats(), ref.Stats(); sa != sb {
		t.Fatalf("%v seed %d: stats diverged:\n  sharded: %+v\n  ref:     %+v", k, seed, sa, sb)
	}
	if la, lb := ctl.LastSerial(), ref.LastSerial(); la != lb {
		t.Fatalf("%v seed %d: LastSerial diverged: %d vs %d", k, seed, la, lb)
	}
	if ca, cb := ctl.ActiveCount(), ref.ActiveCount(); ca != 0 || cb != 0 {
		t.Fatalf("%v seed %d: actives leaked: %d vs %d", k, seed, ca, cb)
	}
	if dbA.Checksum() != dbB.Checksum() {
		t.Fatalf("%v seed %d: final database state diverged", k, seed)
	}
	return squeezed
}

func victimIDs(r Result) string {
	ids := make([]int, 0, len(r.Victims))
	for _, v := range r.Victims {
		ids = append(ids, int(v.ID))
	}
	sort.Ints(ids)
	return fmt.Sprint(ids)
}
