package core

import (
	"sync"

	"repro/internal/simtime"
	"repro/internal/txn"
	"repro/internal/wal"
)

// commit is one validated transaction on its way to stable storage.
type commit struct {
	serial uint64
	g      *wal.Group // nil under LogNone
	at     simtime.Time

	// An engine's commit, or a direct Commit call waiting on done.
	e    *Engine
	t    *txn.Transaction
	done chan error
}

// logPath is the commit path the engine drives. No method waits for a
// device: the committer reports stability by calling deliver, once per
// contiguous advance. adopt makes it the current path, with every serial
// below from stable and cs its predecessor's un-stable commits; handoff
// passes its own to next, and forwards every later enqueue there. kick
// wakes a committer that waited out an engine's Hold.
type logPath interface {
	Committer
	enqueue(c *commit)
	adopt(from uint64, cs []*commit)
	handoff(next logPath)
	kick()
}

// deliver reports cs stable (err nil) or failed: it settles their engine
// in one call and releases any direct Commit call among them.
func deliver(cs []*commit, err error) {
	var e *Engine
	for _, c := range cs {
		if c.done != nil {
			c.done <- err
		} else {
			e = c.e
		}
	}
	if e != nil {
		e.settle(cs, err)
	}
}

// waitStable is a committer's blocking Commit: it enqueues g and waits
// until the committer reports it stable.
func waitStable(p logPath, clock simtime.Clock, g *wal.Group) error {
	c := &commit{serial: g.SerialOrder(), g: g, at: clock.Now(), done: make(chan error, 1)}
	p.enqueue(c)
	return <-c.done
}

// cohortQueue is what every committer shares: its un-stable commits in
// serial order, and the hand-off. Commits may arrive out of serial order
// when several transactions validate at once; the committer drains only
// the contiguous run starting at next onto its device, and settles a
// prefix when the device reports it stable. Embedded, it supplies a
// committer's enqueue, adopt, handoff and kick.
//
// A committer with a device starts a cohort when it is due: while a
// front end holds the engine's commit path open (Engine.Hold), the
// cohort waits for the commits the front end already has in hand, up to
// a full maxCohort run.
type cohortQueue struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes the committer's device goroutine, and a hand-off waiting for it

	maxCohort int // a run this long is due even under a hold; 0 never is

	pending []*commit // sorted by serial
	sent    int       // pending[:sent] are below next: on the device, or covered
	next    uint64    // serial the next drained commit must carry
	stable  uint64    // every serial at or below it is stable

	fwd    logPath // set once the committer has handed off
	refuse error   // once set, a commit that is not forwarded fails with it
	busy   bool    // a cohort is on the device: a hand-off waits it out
	queued func()  // if set, runs under mu after each commit is queued
}

func (q *cohortQueue) init(next uint64, queued func()) {
	q.cond = sync.NewCond(&q.mu)
	q.next = max(next, 1)
	q.queued = queued
}

func (q *cohortQueue) enqueue(c *commit) {
	q.mu.Lock()
	fwd, err := q.fwd, q.refuse
	if fwd == nil && err == nil && c.serial > q.stable {
		i := len(q.pending)
		q.pending = append(q.pending, c)
		for ; i > 0 && q.pending[i-1].serial > c.serial; i-- {
			q.pending[i] = q.pending[i-1]
		}
		q.pending[i] = c
		if c.serial < q.next {
			q.sent++
		}
		q.wakeLocked()
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	if fwd != nil {
		fwd.enqueue(c)
	} else {
		deliver([]*commit{c}, err) // refused, or already stable
	}
}

func (q *cohortQueue) adopt(from uint64, cs []*commit) {
	q.mu.Lock()
	q.fwd = nil
	q.stable = max(q.stable, from-1)
	q.next = max(q.next, from)
	for q.sent = 0; q.sent < len(q.pending) && q.pending[q.sent].serial < q.next; q.sent++ {
	}
	q.wakeLocked() // commits forwarded here before the cursor moved
	q.mu.Unlock()
	for _, c := range cs {
		q.enqueue(c)
	}
}

func (q *cohortQueue) handoff(next logPath) {
	q.mu.Lock()
	for q.busy {
		q.cond.Wait()
	}
	q.fwd = next
	cs, from := q.pending, q.stable+1
	q.pending, q.sent = nil, 0
	q.mu.Unlock()
	next.adopt(from, cs)
}

func (q *cohortQueue) wakeLocked() {
	if q.due() {
		q.cond.Broadcast()
	}
	if q.queued != nil {
		q.queued()
	}
}

// kick wakes the device goroutine if a cohort became due when the last
// Hold on an engine was released.
func (q *cohortQueue) kick() {
	q.mu.Lock()
	if q.due() {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// end fails every queued commit with err, and every later one that is
// not forwarded.
func (q *cohortQueue) end(err error) {
	q.mu.Lock()
	q.refuse = err
	cs := q.pending
	q.pending, q.sent = nil, 0
	q.mu.Unlock()
	deliver(cs, err)
}

// ready reports whether the next serial is queued.
func (q *cohortQueue) ready() bool {
	return q.sent < len(q.pending) && q.pending[q.sent].serial == q.next
}

// due reports whether a cohort should start now: the next serial is
// queued, and no Hold is out on its engine, a full maxCohort run is
// ready, or the queue is refusing.
func (q *cohortQueue) due() bool {
	if !q.ready() {
		return false
	}
	if e := q.pending[q.sent].e; e == nil || e.holds.Load() <= 0 || q.refuse != nil {
		return true
	}
	last := q.sent + q.maxCohort - 1
	return q.maxCohort > 0 && last < len(q.pending) && q.pending[last].serial == q.next+uint64(q.maxCohort-1)
}

// drain appends to dst the contiguous run of at most n commits starting at
// next, and moves next past it.
func (q *cohortQueue) drain(dst []*commit, n int) []*commit {
	for ; n > 0 && q.ready(); n-- {
		dst = append(dst, q.pending[q.sent])
		q.sent++
		q.next++
	}
	return dst
}

// settle records every serial up to through as stable and returns the
// queued commits it covers, in serial order.
func (q *cohortQueue) settle(through uint64) []*commit {
	if through <= q.stable {
		return nil
	}
	q.stable = through
	n := 0
	for n < len(q.pending) && q.pending[n].serial <= through {
		n++
	}
	cs := q.pending[:n:n]
	q.pending = q.pending[n:]
	q.sent = max(q.sent-n, 0)
	q.next = max(q.next, through+1)
	return cs
}

// appendCohort appends the stored-log bytes of every group in batch, in
// serial order, to dst. It is the one form a cohort takes: the group
// committer puts it on the disk as is, the shipper sends it as one log
// frame, and the mirror stores the frame as it arrives.
func appendCohort(dst []byte, batch []*commit) []byte {
	for _, c := range batch {
		if c.g != nil {
			dst = c.g.AppendEncoded(dst)
		}
	}
	return dst
}

// noWaitCommitter is the commit path with no log device: LogDiscard
// (records built, then dropped: "disk writing turned off") and LogNone
// (no records at all). Each commit is stable as soon as it is enqueued,
// released in serial order; with no device to amortize, it ignores
// holds.
type noWaitCommitter struct{ cohortQueue }

func newNoWaitCommitter() *noWaitCommitter {
	c := &noWaitCommitter{}
	c.init(1, c.release)
	return c
}

// release delivers the contiguous run at the head of the queue, under
// the lock so the engine sees it in serial order.
func (c *noWaitCommitter) release() {
	if !c.ready() {
		return
	}
	for c.ready() {
		c.sent++
		c.next++
	}
	deliver(c.settle(c.next-1), nil)
}

func (c *noWaitCommitter) Commit(g *wal.Group) error { return waitStable(c, simtime.Wall, g) }
func (c *noWaitCommitter) Close() error              { return nil }

// blockingPath drives a plain blocking Committer: each commit waits in
// Commit on a goroutine of its own, and results are released in serial
// order.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
type blockingPath struct {
	cohortQueue
	c       Committer
	results map[*commit]error
}

// pathFor returns the commit path for c, wrapping a plain Committer that
// takes over at serial from.
func pathFor(c Committer, from uint64) logPath {
	if p, ok := c.(logPath); ok {
		return p
	}
	b := &blockingPath{c: c, results: make(map[*commit]error)}
	b.init(from, nil)
	b.stable = from - 1
	return b
}

func (b *blockingPath) enqueue(cm *commit) {
	b.cohortQueue.enqueue(cm)
	go func() {
		var err error
		if cm.g != nil {
			err = b.c.Commit(cm.g)
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		b.results[cm] = err
		for len(b.pending) > 0 && b.pending[0].serial == b.stable+1 {
			err, ok := b.results[b.pending[0]]
			if !ok {
				return
			}
			delete(b.results, b.pending[0])
			deliver(b.settle(b.stable+1), err)
		}
	}()
}

// handoff is a no-op: commits already in a blocking Commit finish there.
func (b *blockingPath) handoff(logPath) {}

// kick is a no-op: every commit is already in a Commit of its own.
func (b *blockingPath) kick() {}

func (b *blockingPath) Commit(g *wal.Group) error { return b.c.Commit(g) }
func (b *blockingPath) Close() error              { return b.c.Close() }
