package core

import (
	"sync"
	"time"

	"repro/internal/simtime"
)

// CheckpointSchedulerOptions configures a background checkpoint loop.
type CheckpointSchedulerOptions struct {
	// Every triggers a checkpoint when this much time passed since the
	// last one. Zero disables the time trigger.
	Every time.Duration
	// LogBytes triggers a checkpoint when the node's log device reports
	// this many bytes appended since the last one (logstore.Stats).
	// Zero disables it.
	LogBytes uint64
	// OnCycle, if set, observes every completed cycle (serial, or the
	// error that stopped it). Called from the scheduler goroutine.
	OnCycle func(serial uint64, err error)
}

// CheckpointScheduler runs CheckpointToDir in the background on the
// node's clock, triggered by elapsed time or log growth — the paper's
// checkpoint-and-truncate cycle made continuous, which is what bounds
// both recovery time and log disk usage.
type CheckpointScheduler struct {
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// StartCheckpointScheduler begins checkpointing into dir. The triggers
// are evaluated every quarter of Every, clamped to [10ms, 1s]. While the
// node is a mirror (no engine) the loop idles; it resumes checkpointing
// after a takeover promotes the node. The node stops the scheduler when
// it closes or crashes, before its engine drains; Stop ends it earlier.
// On a node already closed the scheduler never runs.
func (n *Node) StartCheckpointScheduler(dir string, opts CheckpointSchedulerOptions) *CheckpointScheduler {
	poll := min(max(opts.Every/4, 10*time.Millisecond), time.Second)
	s := &CheckpointScheduler{stop: make(chan struct{}), done: make(chan struct{})}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		close(s.done)
		return s
	}
	n.ckpts = append(n.ckpts, s)
	go s.run(n, dir, opts, poll)
	return s
}

func (s *CheckpointScheduler) run(n *Node, dir string, opts CheckpointSchedulerOptions, poll time.Duration) {
	defer close(s.done)
	ticker := simtime.NewTicker(n.cfg.Clock, poll)
	defer ticker.Stop()
	last := n.cfg.Clock.Now()
	lastBytes := n.log.Stats().BytesAppended
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		now := n.cfg.Clock.Now()
		bytes := n.log.Stats().BytesAppended
		fire := opts.Every > 0 && now.Sub(last) >= opts.Every ||
			opts.LogBytes > 0 && bytes-lastBytes >= opts.LogBytes
		if !fire {
			continue
		}
		if n.Engine() == nil {
			// Mirror: nothing to checkpoint here; the primary owns the
			// cycle. Try again after a takeover.
			continue
		}
		serial, err := n.CheckpointToDir(dir)
		last, lastBytes = n.cfg.Clock.Now(), bytes
		if opts.OnCycle != nil {
			opts.OnCycle(serial, err)
		}
	}
}

// Stop ends the loop and waits for an in-flight cycle to finish. A
// second Stop only waits: the node's own shutdown stops the scheduler
// again.
func (s *CheckpointScheduler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}
