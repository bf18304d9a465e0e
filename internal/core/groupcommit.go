package core

import (
	"repro/internal/logstore"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/wal"
)

// GroupCommitter is the transient-primary Log Writer with group fsync.
// Commits queue in serial order; one writer goroutine drains the
// contiguous run at the head of the queue, encodes it back to back in
// stored-log form (appendCohort) and puts it on the device with one
// Append and one Sync, then reports the whole cohort stable in one call.
//
// The batching window is the device itself: while a sync is in flight,
// arriving commits queue behind it, and the next cohort covers them all.
// A front end that holds the engine's commit path open (Engine.Hold)
// while it submits updates it already has in hand widens the window to
// those updates, up to a full cohort. Otherwise, when the committer is
// idle the writer syncs at once, so an uncontended commit pays exactly
// the paper's one-sync cost; under load the sync amortizes across the
// cohort and the disk leaves the per-transaction critical path — the
// same cost the Mirror Node removes in normal mode, recovered without a
// second machine. No timer is armed: a
// sub-millisecond hold would be rounded up to a whole millisecond by the
// Go netpoller whenever every goroutine is parked, which is exactly the
// state a cohort waits in.
//
// A commit is reported stable only after a Sync covering its records has
// completed, so an acknowledged transaction is always recoverable.
// MaxCohort 1 gives every transaction its own append and sync: the
// paper's per-commit Log Writer.
type GroupCommitter struct {
	log logstore.Store

	cohortQueue
	exited chan struct{}

	sizes metrics.IntDist // commits per synced cohort
}

// GroupOptions parameterizes a GroupCommitter.
type GroupOptions struct {
	// MaxCohort caps how many transactions share one sync (default 64);
	// 1 syncs once per commit.
	MaxCohort int
}

// NewGroupCommitter returns a group-fsync committer over log, with its
// writer goroutine running.
func NewGroupCommitter(log logstore.Store, opts GroupOptions) *GroupCommitter {
	if opts.MaxCohort <= 0 {
		opts.MaxCohort = DefaultMaxCohort
	}
	c := &GroupCommitter{
		log:         log,
		cohortQueue: cohortQueue{maxCohort: opts.MaxCohort},
		exited:      make(chan struct{}),
	}
	c.init(1, nil)
	go c.writer()
	return c
}

// writer puts each contiguous run of queued commits on the device and
// reports it. After Close it drains what is ready and fails the rest.
func (c *GroupCommitter) writer() {
	defer close(c.exited)
	var (
		batch []*commit
		buf   []byte // reused: Append does not retain it
	)
	c.mu.Lock()
	for {
		for !c.due() && c.refuse == nil {
			c.cond.Wait()
		}
		if !c.ready() {
			break
		}
		batch = c.drain(batch[:0], c.maxCohort)
		c.busy = true
		c.mu.Unlock()

		buf = appendCohort(buf[:0], batch)
		err := c.log.Append(buf)
		if err == nil {
			err = c.log.Sync()
		}

		c.sizes.Observe(len(batch))
		c.mu.Lock()
		cs := c.settle(batch[len(batch)-1].serial)
		c.mu.Unlock()
		deliver(cs, err)
		clear(batch)

		c.mu.Lock()
		c.busy = false
		c.cond.Broadcast() // a hand-off may be waiting for the device
	}
	c.mu.Unlock()
	c.end(ErrStopped)
}

// Commit implements Committer: it enqueues g and waits until a sync
// covers it.
func (c *GroupCommitter) Commit(g *wal.Group) error { return waitStable(c, simtime.Wall, g) }

// CohortSizes exposes the cohort-size distribution.
func (c *GroupCommitter) CohortSizes() *metrics.IntDist { return &c.sizes }

// Close implements Committer. The writer finishes the contiguous run
// already queued; commits queued behind a gap fail with ErrStopped, and
// so does every later one.
func (c *GroupCommitter) Close() error {
	c.mu.Lock()
	c.refuse = ErrStopped
	c.cond.Broadcast()
	c.mu.Unlock()
	<-c.exited
	return nil
}
