package core

import (
	"sync"

	"repro/internal/logstore"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/wal"
)

// GroupCommitter is the transient-primary Log Writer with leader/follower
// group fsync: committers append their encoded records into the open
// cohort, and exactly one of them — the cohort leader — puts the whole
// cohort on the device with one vectored AppendBatch and one Sync, on
// behalf of every follower parked on the cohort latch.
//
// The batching window is the device itself: while a sync is in flight,
// arriving committers pile into the next cohort, whose leader waits for
// the device and then covers them all. When the committer is idle the
// leader syncs immediately, so an uncontended commit pays exactly the
// paper's one-sync cost; under load the sync amortizes across the cohort
// and the disk leaves the per-transaction critical path — the same cost
// the Mirror Node removes in normal mode, recovered without a second
// machine. No timer is armed: a sub-millisecond hold would be rounded up
// to a whole millisecond by the Go netpoller whenever every goroutine is
// parked, which is exactly the state a cohort waits in.
//
// Commit returns only after a Sync covering this transaction's records
// has completed, so an acknowledged transaction is always recoverable.
// MaxCohort 1 gives every transaction its own append and sync: the
// paper's per-commit Log Writer.
type GroupCommitter struct {
	log   logstore.Store
	clock simtime.Clock

	maxCohort int

	mu      sync.Mutex
	cond    *sync.Cond // wakes cohort leaders queueing for the device
	cur     *fsyncCohort
	syncing bool
	closed  bool

	stats CommitterStats
	sizes metrics.IntDist
	waits metrics.Histogram // append → sync-complete, per committer
}

// fsyncCohort accumulates the encoded records of the transactions that
// will share one AppendBatch + Sync. done is the cohort latch: closed by
// the leader once the covering sync has completed (or failed).
type fsyncCohort struct {
	arena []byte
	ends  []int // arena end offset of each member's encoding
	n     int
	done  chan struct{}
	err   error
}

// chunks slices the arena into one chunk per member for AppendBatch.
// Only valid after the cohort is sealed (the arena no longer grows).
func (c *fsyncCohort) chunks() [][]byte {
	out := make([][]byte, len(c.ends))
	start := 0
	for i, end := range c.ends {
		out[i] = c.arena[start:end]
		start = end
	}
	return out
}

// GroupOptions parameterizes a GroupCommitter.
type GroupOptions struct {
	// MaxCohort caps how many transactions share one sync (default 64);
	// 1 syncs once per commit.
	MaxCohort int
	// Clock times the commit waits; nil uses the wall clock.
	Clock simtime.Clock
}

// NewGroupCommitter returns a leader/follower group-fsync committer over
// log.
func NewGroupCommitter(log logstore.Store, opts GroupOptions) *GroupCommitter {
	if opts.MaxCohort <= 0 {
		opts.MaxCohort = DefaultMaxCohort
	}
	if opts.Clock == nil {
		opts.Clock = simtime.NewWallClock()
	}
	g := &GroupCommitter{
		log:       log,
		clock:     opts.Clock,
		maxCohort: opts.MaxCohort,
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Commit implements Committer: join (or open) the current cohort, then
// either lead its sync or wait on its latch.
func (c *GroupCommitter) Commit(g *wal.Group) error {
	start := c.clock.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrStopped
	}
	co := c.cur
	lead := false
	if co == nil || co.n >= c.maxCohort {
		co = &fsyncCohort{done: make(chan struct{})}
		c.cur = co
		lead = true
	}
	co.arena = g.AppendEncoded(co.arena)
	co.ends = append(co.ends, len(co.arena))
	co.n++

	if !lead {
		// Follower: the cohort's leader syncs for us; park on the latch.
		c.mu.Unlock()
		<-co.done
		c.waits.Observe(c.clock.Now().Sub(start))
		return co.err
	}

	// Leader. Queue for the device; followers join the cohort meanwhile.
	for c.syncing && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		if c.cur == co {
			c.cur = nil
		}
		c.mu.Unlock()
		c.finish(co, ErrStopped)
		return ErrStopped
	}
	c.syncing = true
	if c.cur == co {
		c.cur = nil // seal: later arrivals open the next cohort
	}
	chunks := co.chunks()
	c.mu.Unlock()

	err := c.log.AppendBatch(chunks)
	if err == nil {
		err = c.log.Sync()
	}

	c.mu.Lock()
	c.syncing = false
	if err == nil {
		c.stats.Commits += uint64(co.n)
		c.stats.Syncs++
		c.stats.Bytes += uint64(len(co.arena))
	}
	c.sizes.Observe(co.n)
	c.cond.Signal() // hand the device to the next cohort's leader
	c.mu.Unlock()

	c.finish(co, err)
	c.waits.Observe(c.clock.Now().Sub(start))
	return err
}

// finish resolves the cohort latch, releasing every follower.
func (c *GroupCommitter) finish(co *fsyncCohort, err error) {
	co.err = err
	close(co.done)
}

// Stats returns committer accounting.
func (c *GroupCommitter) Stats() CommitterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Cohorts = c.sizes.Count()
	st.MaxCohort = c.sizes.Max()
	return st
}

// CohortSizes exposes the cohort-size distribution.
func (c *GroupCommitter) CohortSizes() *metrics.IntDist { return &c.sizes }

// SyncWaits exposes the per-committer append→durable latency histogram.
func (c *GroupCommitter) SyncWaits() *metrics.Histogram { return &c.waits }

// Close implements Committer. The open cohort (if any) fails with
// ErrStopped; a sync already on the device completes normally.
func (c *GroupCommitter) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}
