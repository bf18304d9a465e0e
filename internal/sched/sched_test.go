package sched

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
	"repro/internal/txn"
)

func rt(id txn.ID, deadline simtime.Time) *txn.Transaction {
	return txn.New(id, txn.Firm, 0, deadline)
}

func nonRT(id txn.ID) *txn.Transaction {
	return txn.New(id, txn.NonRealTime, 0, txn.NoDeadline)
}

func TestEDFOrder(t *testing.T) {
	q := NewQueue(0)
	q.Push(rt(1, 300))
	q.Push(rt(2, 100))
	q.Push(rt(3, 200))
	var got []txn.ID
	for tx := q.Pop(); tx != nil; tx = q.Pop() {
		got = append(got, tx.ID)
	}
	want := []txn.ID{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EDF order = %v, want %v", got, want)
		}
	}
}

func TestEqualDeadlinesFIFO(t *testing.T) {
	q := NewQueue(0)
	for i := 1; i <= 5; i++ {
		q.Push(rt(txn.ID(i), 100))
	}
	for i := 1; i <= 5; i++ {
		if tx := q.Pop(); tx.ID != txn.ID(i) {
			t.Fatalf("equal deadlines not FIFO: got %d at position %d", tx.ID, i)
		}
	}
}

func TestPopEmpty(t *testing.T) {
	q := NewQueue(0)
	if q.Pop() != nil {
		t.Fatal("Pop on empty queue should be nil")
	}
	if q.Len() != 0 {
		t.Fatal("Len should be 0")
	}
}

func TestNonRTServedWhenIdle(t *testing.T) {
	q := NewQueue(0) // no reservation at all
	q.Push(nonRT(1))
	tx := q.Pop()
	if tx == nil || tx.ID != 1 {
		t.Fatal("non-RT transaction should run when no RT work exists")
	}
}

func TestNonRTStarvationWithoutReserve(t *testing.T) {
	q := NewQueue(0)
	q.Push(nonRT(100))
	for i := 1; i <= 20; i++ {
		q.Push(rt(txn.ID(i), simtime.Time(i)))
	}
	for i := 0; i < 20; i++ {
		if tx := q.Pop(); tx.Class == txn.NonRealTime {
			t.Fatal("non-RT ran before RT queue drained with zero reservation")
		}
	}
}

func TestNonRTReservationPreventsStarvation(t *testing.T) {
	q := NewQueue(0.1) // 10% of dispatches
	for i := 1; i <= 10; i++ {
		q.Push(nonRT(txn.ID(1000 + i)))
	}
	nonRTruns := 0
	// Keep the RT queue non-empty throughout: 100 dispatches.
	for i := 1; i <= 100; i++ {
		q.Push(rt(txn.ID(i), simtime.Time(i)))
	}
	for i := 0; i < 100; i++ {
		if tx := q.Pop(); tx != nil && tx.Class == txn.NonRealTime {
			nonRTruns++
		}
	}
	if nonRTruns == 0 {
		t.Fatal("reservation did not prevent starvation")
	}
	if nonRTruns > 10+2 {
		t.Fatalf("non-RT overserved: %d runs out of 100 at 10%% reserve", nonRTruns)
	}
}

func TestDropExpired(t *testing.T) {
	q := NewQueue(0)
	q.Push(rt(1, 50))
	q.Push(rt(2, 150))
	q.Push(rt(3, 70))
	dropped := q.DropExpired(100)
	if len(dropped) != 2 {
		t.Fatalf("dropped %d, want 2", len(dropped))
	}
	next := q.Pop()
	if next == nil || next.ID != 2 {
		t.Fatalf("survivor = %v", next)
	}
}

func TestDropExpiredKeepsSoft(t *testing.T) {
	q := NewQueue(0)
	soft := txn.New(1, txn.Soft, 0, 50)
	q.Push(soft)
	if dropped := q.DropExpired(100); len(dropped) != 0 {
		t.Fatal("soft transactions must survive deadline expiry")
	}
}

// Property: Pop with no non-RT work always yields nondecreasing
// deadlines when nothing is pushed in between.
func TestPropertyEDFIsSorted(t *testing.T) {
	f := func(deadlines []uint16) bool {
		q := NewQueue(0)
		for i, d := range deadlines {
			q.Push(rt(txn.ID(i+1), simtime.Time(d)))
		}
		prev := simtime.Time(-1)
		for tx := q.Pop(); tx != nil; tx = q.Pop() {
			if tx.Deadline < prev {
				return false
			}
			prev = tx.Deadline
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reservation accounting — over a long run with both queues
// always non-empty, the non-RT share approaches the reserve fraction.
func TestPropertyReservationShare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, reserve := range []float64{0.05, 0.2, 0.5} {
		q := NewQueue(reserve)
		nonRTruns := 0
		const n = 2000
		for i := 0; i < n; i++ {
			// Keep both queues stocked.
			q.Push(rt(txn.ID(i), simtime.Time(rng.Intn(1000))))
			q.Push(nonRT(txn.ID(100000 + i)))
			if tx := q.Pop(); tx.Class == txn.NonRealTime {
				nonRTruns++
			}
		}
		share := float64(nonRTruns) / n
		if share < reserve-0.05 || share > reserve+0.05 {
			t.Fatalf("reserve %.2f: share %.3f", reserve, share)
		}
	}
}

// --- Overload manager ------------------------------------------------------

func TestOverloadHardCap(t *testing.T) {
	o := NewOverload(OverloadConfig{MaxActive: 3})
	for i := 0; i < 3; i++ {
		if !o.Admit(0) {
			t.Fatalf("admission %d refused below cap", i)
		}
	}
	if o.Admit(0) {
		t.Fatal("admission above cap")
	}
	if o.Denied() != 1 {
		t.Fatalf("Denied = %d", o.Denied())
	}
	o.Done()
	if !o.Admit(0) {
		t.Fatal("slot not released by Done")
	}
	if o.Active() != 3 {
		t.Fatalf("Active = %d", o.Active())
	}
}

func TestOverloadShrinksOnMisses(t *testing.T) {
	o := NewOverload(OverloadConfig{MaxActive: 40, MinActive: 5, Window: 100, MissHighWater: 4})
	for i := 0; i < 5; i++ {
		o.RecordMiss(simtime.Time(10 + i))
	}
	o.Admit(20) // triggers adaptation
	if o.Limit() >= 40 {
		t.Fatalf("limit did not shrink: %d", o.Limit())
	}
	if o.Limit() != 20 {
		t.Fatalf("limit = %d, want multiplicative halve to 20", o.Limit())
	}
}

func TestOverloadFloor(t *testing.T) {
	o := NewOverload(OverloadConfig{MaxActive: 16, MinActive: 6, Window: 100, MissHighWater: 1})
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			o.RecordMiss(simtime.Time(round*10 + i))
		}
		o.Admit(simtime.Time(round*10 + 5))
		o.Done()
	}
	if o.Limit() < 6 {
		t.Fatalf("limit %d fell below floor", o.Limit())
	}
}

func TestOverloadRecovers(t *testing.T) {
	o := NewOverload(OverloadConfig{MaxActive: 16, MinActive: 2, Window: 100, MissHighWater: 1})
	for i := 0; i < 3; i++ {
		o.RecordMiss(simtime.Time(i))
	}
	o.Admit(5)
	o.Done()
	shrunk := o.Limit()
	if shrunk >= 16 {
		t.Fatal("limit did not shrink")
	}
	// A long miss-free stretch: limit grows back one step per window.
	for now := simtime.Time(200); now < 2000; now += 100 {
		o.Admit(now)
		o.Done()
	}
	if o.Limit() <= shrunk {
		t.Fatalf("limit did not recover: %d", o.Limit())
	}
}

func TestOverloadMissWindowExpires(t *testing.T) {
	o := NewOverload(OverloadConfig{MaxActive: 16, MinActive: 2, Window: 100, MissHighWater: 2})
	o.RecordMiss(0)
	o.RecordMiss(1)
	o.RecordMiss(2)
	// Far in the future the misses have aged out: no shrink.
	o.Admit(1000)
	if o.Limit() != 16 {
		t.Fatalf("stale misses shrank the limit to %d", o.Limit())
	}
}

func TestOverloadDefaults(t *testing.T) {
	o := NewOverload(OverloadConfig{})
	if o.Limit() != 50 {
		t.Fatalf("default limit = %d, want 50", o.Limit())
	}
	o2 := NewOverload(OverloadConfig{MaxActive: 4, MinActive: 10})
	if o2.Limit() != 4 {
		t.Fatalf("MinActive must clamp to MaxActive; limit = %d", o2.Limit())
	}
	o2.Done() // Done with zero active must not underflow
	if o2.Active() != 0 {
		t.Fatalf("Active underflowed: %d", o2.Active())
	}
}

func TestOverloadConcurrent(t *testing.T) {
	o := NewOverload(OverloadConfig{MaxActive: 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if o.Admit(simtime.Time(i)) {
					o.Done()
				}
				if i%50 == 0 {
					o.RecordMiss(simtime.Time(i))
				}
			}
		}()
	}
	wg.Wait()
	if o.Active() != 0 {
		t.Fatalf("Active = %d after all Done", o.Active())
	}
}

func TestEvictLowerCriticality(t *testing.T) {
	q := NewQueue(0)
	lo := rt(1, 100)
	lo.Criticality = 1
	mid := rt(2, 200)
	mid.Criticality = 5
	q.Push(lo)
	q.Push(mid)

	if v := q.EvictLowerCriticality(1); v != nil {
		t.Fatalf("evicted %v for equal criticality", v.ID)
	}
	v := q.EvictLowerCriticality(3)
	if v == nil || v.ID != 1 {
		t.Fatalf("victim = %v, want txn 1", v)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	// Remaining queue still pops correctly.
	if got := q.Pop(); got == nil || got.ID != 2 {
		t.Fatalf("Pop = %v", got)
	}
}

func TestEvictPrefersNonRT(t *testing.T) {
	q := NewQueue(0)
	n := nonRT(10)
	n.Criticality = 2
	r := rt(20, 100)
	r.Criticality = 2
	q.Push(n)
	q.Push(r)
	v := q.EvictLowerCriticality(5)
	if v == nil || v.ID != 10 {
		t.Fatalf("victim = %v, want the non-RT txn", v)
	}
}

func TestEvictPicksLatestDeadlineAmongEqual(t *testing.T) {
	q := NewQueue(0)
	early := rt(1, 100)
	late := rt(2, 900)
	q.Push(early)
	q.Push(late)
	v := q.EvictLowerCriticality(1)
	if v == nil || v.ID != 2 {
		t.Fatalf("victim = %v, want the latest-deadline txn", v)
	}
}

func TestEvictEmptyQueue(t *testing.T) {
	q := NewQueue(0)
	if q.EvictLowerCriticality(100) != nil {
		t.Fatal("evicted from empty queue")
	}
}

func TestForceAdmit(t *testing.T) {
	o := NewOverload(OverloadConfig{MaxActive: 1})
	if !o.Admit(0) {
		t.Fatal("first admit refused")
	}
	o.ForceAdmit()
	if o.Active() != 2 {
		t.Fatalf("Active = %d", o.Active())
	}
	o.Done()
	o.Done()
}

func TestOverloadWouldAdmit(t *testing.T) {
	o := NewOverload(OverloadConfig{MaxActive: 2})
	if !o.WouldAdmit(0) {
		t.Fatal("WouldAdmit false on an empty manager")
	}
	o.Admit(0)
	if !o.WouldAdmit(0) {
		t.Fatal("WouldAdmit false below the limit")
	}
	o.Admit(0)
	if o.WouldAdmit(0) {
		t.Fatal("WouldAdmit true at the limit")
	}
	// Advisory only: no slot taken, no denial counted.
	if o.Active() != 2 {
		t.Fatalf("Active = %d, WouldAdmit must not take a slot", o.Active())
	}
	if o.Denied() != 0 {
		t.Fatalf("Denied = %d, WouldAdmit must not count a denial", o.Denied())
	}
	o.Done()
	if !o.WouldAdmit(0) {
		t.Fatal("WouldAdmit false after a slot freed")
	}
}
