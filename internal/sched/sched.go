// Package sched implements the RODAIN transaction scheduler: a modified
// Earliest-Deadline-First ready queue and the overload manager.
//
// The modification to traditional EDF supports a small number of
// non-real-time transactions running alongside real-time ones. Without
// deadlines, non-RT transactions would only run when no real-time
// transaction is ready and would starve; the scheduler therefore reserves
// a fixed fraction of dispatches for them, claimed on demand — when no
// non-RT work is queued the reservation costs nothing.
//
// The overload manager limits the number of active transactions. It uses
// the number of transactions that missed their deadline within an
// observation period as the load-level signal: misses shrink the
// admission limit multiplicatively (down to a floor), miss-free periods
// recover it additively, and while the limit is reached an arriving
// transaction — the lowest-priority work in the system — is denied
// admission and aborted.
package sched

import (
	"container/heap"
	"container/list"
	"sync"

	"repro/internal/simtime"
	"repro/internal/txn"
)

// Queue is the modified-EDF ready queue. It is safe for concurrent use.
type Queue struct {
	mu sync.Mutex

	rt    edfHeap
	nonRT list.List // of *txn.Transaction, FIFO
	seq   uint64

	// reserve is the fraction of dispatches reserved, on demand, for
	// non-real-time transactions.
	reserve float64
	// dispatched and nonRTDispatched count Pop results, to enforce the
	// reservation.
	dispatched      uint64
	nonRTDispatched uint64
}

// NewQueue returns a ready queue that reserves the given fraction
// (0 ≤ reserve < 1) of dispatches for non-real-time transactions.
func NewQueue(reserve float64) *Queue {
	if reserve < 0 {
		reserve = 0
	}
	if reserve >= 1 {
		reserve = 0.99
	}
	return &Queue{reserve: reserve}
}

type edfItem struct {
	t   *txn.Transaction
	seq uint64
}

type edfHeap []edfItem

func (h edfHeap) Len() int { return len(h) }
func (h edfHeap) Less(i, j int) bool {
	if h[i].t.Deadline != h[j].t.Deadline {
		return h[i].t.Deadline < h[j].t.Deadline
	}
	return h[i].seq < h[j].seq // FIFO among equal deadlines
}
func (h edfHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *edfHeap) Push(x any)        { *h = append(*h, x.(edfItem)) }
func (h *edfHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h edfHeap) peek() edfItem      { return h[0] }
func (q *Queue) rtLenLocked() int    { return len(q.rt) }
func (q *Queue) nonRTLenLocked() int { return q.nonRT.Len() }

// Push enqueues a transaction. Non-real-time transactions (no deadline)
// go to the FIFO side queue; everything else is ordered by absolute
// deadline.
func (q *Queue) Push(t *txn.Transaction) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.Class == txn.NonRealTime || !t.HasDeadline() {
		q.nonRT.PushBack(t)
	} else {
		q.seq++
		heap.Push(&q.rt, edfItem{t: t, seq: q.seq})
	}
}

// Pop removes and returns the next transaction to run, or nil if the
// queue is empty. The non-RT side queue is served when it is owed its
// reserved fraction, and whenever no real-time work is ready.
func (q *Queue) Pop() *txn.Transaction {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

func (q *Queue) popLocked() *txn.Transaction {
	useNonRT := false
	switch {
	case q.rtLenLocked() == 0 && q.nonRTLenLocked() == 0:
		return nil
	case q.rtLenLocked() == 0:
		useNonRT = true
	case q.nonRTLenLocked() == 0:
		useNonRT = false
	default:
		// Both queues have work: serve non-RT if it is owed its
		// reserved fraction of dispatches.
		owed := float64(q.nonRTDispatched) < q.reserve*float64(q.dispatched)
		useNonRT = owed
	}
	q.dispatched++
	if useNonRT {
		q.nonRTDispatched++
		front := q.nonRT.Front()
		q.nonRT.Remove(front)
		return front.Value.(*txn.Transaction)
	}
	return heap.Pop(&q.rt).(edfItem).t
}

// Len reports the number of queued transactions (both queues).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rtLenLocked() + q.nonRTLenLocked()
}

// DropExpired removes and returns every queued firm transaction whose
// deadline has passed at now; they are aborted by the caller without
// consuming execution time.
func (q *Queue) DropExpired(now simtime.Time) []*txn.Transaction {
	q.mu.Lock()
	defer q.mu.Unlock()
	var dropped []*txn.Transaction
	for q.rtLenLocked() > 0 {
		it := q.rt.peek()
		if it.t.Class == txn.Firm && it.t.Expired(now) {
			heap.Pop(&q.rt)
			dropped = append(dropped, it.t)
			continue
		}
		break
	}
	return dropped
}

// EvictLowerCriticality removes and returns a queued transaction whose
// criticality is strictly below crit — the victim an arriving
// higher-priority transaction displaces when the overload manager's
// limit is reached. Among candidates the lowest criticality wins, with
// non-real-time work preferred and later deadlines breaking ties. It
// returns nil when nothing queued is less critical. Running transactions
// are never evicted.
func (q *Queue) EvictLowerCriticality(crit int) *txn.Transaction {
	q.mu.Lock()
	defer q.mu.Unlock()
	// Non-RT queue first: deadline-less work is the least critical of
	// equal-criticality candidates.
	var nonRTVictim *list.Element
	for e := q.nonRT.Front(); e != nil; e = e.Next() {
		t := e.Value.(*txn.Transaction)
		if t.Criticality >= crit {
			continue
		}
		if nonRTVictim == nil || t.Criticality < nonRTVictim.Value.(*txn.Transaction).Criticality {
			nonRTVictim = e
		}
	}
	rtVictim := -1
	for i := range q.rt {
		t := q.rt[i].t
		if t.Criticality >= crit {
			continue
		}
		if rtVictim < 0 {
			rtVictim = i
			continue
		}
		v := q.rt[rtVictim].t
		if t.Criticality < v.Criticality ||
			(t.Criticality == v.Criticality && t.Deadline > v.Deadline) {
			rtVictim = i
		}
	}
	switch {
	case nonRTVictim != nil && (rtVictim < 0 ||
		nonRTVictim.Value.(*txn.Transaction).Criticality <= q.rt[rtVictim].t.Criticality):
		t := nonRTVictim.Value.(*txn.Transaction)
		q.nonRT.Remove(nonRTVictim)
		return t
	case rtVictim >= 0:
		t := q.rt[rtVictim].t
		heap.Remove(&q.rt, rtVictim)
		return t
	default:
		return nil
	}
}

// OverloadConfig parameterizes the overload manager.
type OverloadConfig struct {
	// MaxActive is the hard cap on concurrently active transactions
	// (the paper's experiments use 50).
	MaxActive int
	// MinActive is the floor the dynamic limit can shrink to.
	MinActive int
	// Window is the observation period for deadline misses.
	Window simtime.Duration
	// MissHighWater is the number of misses within Window that triggers
	// a multiplicative shrink of the admission limit.
	MissHighWater int
}

// DefaultOverloadConfig mirrors the paper's experimental setup.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		MaxActive:     50,
		MinActive:     8,
		Window:        simtime.Duration(500e6), // 500 ms
		MissHighWater: 10,
	}
}

// Overload is the overload manager. It is safe for concurrent use.
type Overload struct {
	cfg OverloadConfig

	mu       sync.Mutex
	active   int
	limit    int
	misses   []simtime.Time // miss times within the current window
	lastGrow simtime.Time

	denied uint64
}

// NewOverload returns an overload manager with the given configuration.
// Zero-valued fields are filled from DefaultOverloadConfig.
func NewOverload(cfg OverloadConfig) *Overload {
	def := DefaultOverloadConfig()
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = def.MaxActive
	}
	if cfg.MinActive <= 0 {
		cfg.MinActive = def.MinActive
	}
	if cfg.MinActive > cfg.MaxActive {
		cfg.MinActive = cfg.MaxActive
	}
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.MissHighWater <= 0 {
		cfg.MissHighWater = def.MissHighWater
	}
	return &Overload{cfg: cfg, limit: cfg.MaxActive}
}

// Admit decides whether a transaction arriving at now may enter the
// system. On true the active count is incremented; the caller must pair
// it with Done. On false the transaction must be aborted with reason
// OverloadDenied.
func (o *Overload) Admit(now simtime.Time) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pruneLocked(now)
	o.adaptLocked(now)
	if o.active >= o.limit {
		o.denied++
		return false
	}
	o.active++
	return true
}

// WouldAdmit reports whether a transaction arriving at now would be
// admitted, without taking a slot or counting a denial. It is the
// advisory pre-check a service front end runs at the socket: when false
// the request can be answered MISS overload before any execution
// resources are spent on it. The answer is a snapshot — a concurrent
// arrival may still take the last slot — so admission proper remains
// Admit's job.
func (o *Overload) WouldAdmit(now simtime.Time) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pruneLocked(now)
	o.adaptLocked(now)
	return o.active < o.limit
}

// ForceAdmit takes a slot unconditionally: used when an arriving
// high-criticality transaction displaces a queued victim whose slot is
// released asynchronously. The active count may transiently exceed the
// limit by the number of in-flight displacements.
func (o *Overload) ForceAdmit() {
	o.mu.Lock()
	o.active++
	o.mu.Unlock()
}

// Done releases an admitted transaction's slot.
func (o *Overload) Done() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.active > 0 {
		o.active--
	}
}

// RecordMiss notes a deadline miss at now; misses within the observation
// window drive the admission limit down.
func (o *Overload) RecordMiss(now simtime.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pruneLocked(now)
	o.misses = append(o.misses, now)
}

// Active reports the number of admitted, unfinished transactions.
func (o *Overload) Active() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.active
}

// Limit reports the current dynamic admission limit.
func (o *Overload) Limit() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.limit
}

// Denied reports how many arrivals have been refused admission.
func (o *Overload) Denied() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.denied
}

func (o *Overload) pruneLocked(now simtime.Time) {
	cut := 0
	for cut < len(o.misses) && o.misses[cut] < now.Add(-o.cfg.Window) {
		cut++
	}
	if cut > 0 {
		o.misses = append(o.misses[:0], o.misses[cut:]...)
	}
}

// adaptLocked applies the miss-driven limit policy: multiplicative
// decrease when misses within the window exceed the high-water mark,
// additive recovery after a miss-free window.
func (o *Overload) adaptLocked(now simtime.Time) {
	if len(o.misses) > o.cfg.MissHighWater {
		o.limit /= 2
		if o.limit < o.cfg.MinActive {
			o.limit = o.cfg.MinActive
		}
		// Consume the misses so one burst shrinks the limit once.
		o.misses = o.misses[:0]
		o.lastGrow = now
		return
	}
	if len(o.misses) == 0 && o.limit < o.cfg.MaxActive && now.Sub(o.lastGrow) >= o.cfg.Window {
		o.limit++
		o.lastGrow = now
	}
}
