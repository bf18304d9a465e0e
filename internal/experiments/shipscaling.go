package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ShipScalingResult is one cell of the group-commit shipping series:
// commit throughput through the full Log Writer → wire → mirror →
// cumulative-ack loop, cohort-batched versus strictly per transaction.
type ShipScalingResult struct {
	Mode       string // "grouped" or "pertxn"
	Committers int
	Txns       int
	Elapsed    time.Duration
	Throughput float64 // committed transactions per second
	MeanCohort float64 // groups per wire batch
	QueueP99   time.Duration
}

// ShipScaling measures the primary's commit path against a real mirror
// engine over an in-process pipe, as the number of concurrent committers
// grows. mode=grouped uses the adaptive cohort collector; mode=pertxn
// caps every wire batch at one group — the behavior before group commit.
// On a single-CPU host the committers time-share, but the batching win
// (fewer flushes and wakeups per commit) still shows as higher
// throughput and cohort sizes above one.
func ShipScaling(txns int, committers []int) ([]ShipScalingResult, error) {
	if txns <= 0 {
		txns = 20000
	}
	if len(committers) == 0 {
		committers = []int{1, 2, 4, 8, 16}
	}
	var out []ShipScalingResult
	for _, mode := range []string{"grouped", "pertxn"} {
		for _, c := range committers {
			r, err := shipScalingPoint(mode, txns, c)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func shipScalingPoint(mode string, txns, committers int) (ShipScalingResult, error) {
	opts := core.ShipperOptions{
		AckTimeout: 30 * time.Second,
		Heartbeat:  50 * time.Millisecond,
	}
	if mode == "pertxn" {
		opts.MaxCohort = 1
	}
	a, b := transport.Pipe()
	m := core.NewMirrorEngine(core.Config{MirrorSyncEvery: -1}, store.New(), logstore.NewMem())
	errc := make(chan error, 1)
	go func() { errc <- m.Run(b) }()
	hello, err := a.Recv()
	if err != nil || hello.Type != transport.MsgHello {
		return ShipScalingResult{}, fmt.Errorf("mirror hello: %v", err)
	}
	s := core.NewMirrorShipper(a, 1, opts)
	s.Start()
	defer func() {
		s.Close()
		b.Close()
		<-errc
	}()

	img := make([]byte, 64)
	var next atomic.Uint64
	var commitErr atomic.Value
	var wg sync.WaitGroup
	start := simtime.Wall.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				serial := next.Add(1)
				if serial > uint64(txns) {
					return
				}
				g := &wal.Group{
					Writes: []*wal.Record{
						{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID(serial % 1024), AfterImage: img},
					},
					Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial * 65536},
				}
				if err := s.Commit(g); err != nil {
					commitErr.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := simtime.Wall.Now().Sub(start)
	if err, _ := commitErr.Load().(error); err != nil {
		return ShipScalingResult{}, err
	}
	st := s.Stats()
	mean := 0.0
	if st.Cohorts > 0 {
		mean = float64(st.GroupsShipped) / float64(st.Cohorts)
	}
	return ShipScalingResult{
		Mode: mode, Committers: committers, Txns: txns, Elapsed: elapsed,
		Throughput: float64(txns) / elapsed.Seconds(),
		MeanCohort: mean,
		QueueP99:   s.QueueDelay().Quantile(0.99),
	}, nil
}

// ShipScalingTable renders the shipping series.
func ShipScalingTable(rs []ShipScalingResult) *metrics.Table {
	t := &metrics.Table{
		Title:  "shipscaling — grouped vs per-txn log shipping, real mirror over in-process pipe",
		Header: []string{"mode", "committers", "txns", "elapsed", "commits/sec", "groups/batch", "queue p99"},
	}
	for _, r := range rs {
		t.AddRow(
			r.Mode,
			fmt.Sprintf("%d", r.Committers),
			fmt.Sprintf("%d", r.Txns),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2f", r.MeanCohort),
			r.QueueP99.Round(time.Microsecond).String(),
		)
	}
	return t
}

// TransientFsyncResult is one cell of the transient-primary series: the
// leader/follower group-fsync committer against the same committer capped
// at one transaction per cohort (the paper's per-commit sync) over a
// device with realistic sync latency.
type TransientFsyncResult struct {
	Mode           string // "group" or "persync"
	Committers     int
	Txns           int
	Elapsed        time.Duration
	Throughput     float64
	Syncs          uint64
	SyncsPerCommit float64
	MeanCohort     float64
}

// TransientFsync measures the takeover-path commit cost: after the
// mirror is lost, every commit must reach the local disk. Group fsync
// amortizes the device sync across the cohort, so syncs/commit falls
// well below one as committers grow while per-sync stays pinned at one.
func TransientFsync(txns int, committers []int, syncDelay time.Duration) ([]TransientFsyncResult, error) {
	if txns <= 0 {
		txns = 4000
	}
	if len(committers) == 0 {
		committers = []int{1, 2, 4, 8, 16}
	}
	if syncDelay <= 0 {
		syncDelay = 100 * time.Microsecond
	}
	var out []TransientFsyncResult
	for _, mode := range []string{"group", "persync"} {
		for _, c := range committers {
			r, err := transientFsyncPoint(mode, txns, c, syncDelay)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func transientFsyncPoint(mode string, txns, committers int, syncDelay time.Duration) (TransientFsyncResult, error) {
	mem := logstore.NewMem()
	slow := logstore.NewDelayed(mem, syncDelay)
	var opts core.GroupOptions
	if mode == "persync" {
		opts.MaxCohort = 1
	}
	c := core.NewGroupCommitter(slow, opts)
	defer c.Close()

	img := make([]byte, 64)
	var next atomic.Uint64
	var commitErr atomic.Value
	var wg sync.WaitGroup
	start := simtime.Wall.Now()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				serial := next.Add(1)
				if serial > uint64(txns) {
					return
				}
				g := &wal.Group{
					Writes: []*wal.Record{
						{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID(serial % 1024), AfterImage: img},
					},
					Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial * 65536},
				}
				if err := c.Commit(g); err != nil {
					commitErr.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := simtime.Wall.Now().Sub(start)
	if err, _ := commitErr.Load().(error); err != nil {
		return TransientFsyncResult{}, err
	}
	syncs := mem.Stats().Syncs
	mean := 1.0
	if st := c.Stats(); st.Cohorts > 0 {
		mean = float64(st.Commits) / float64(st.Cohorts)
	}
	return TransientFsyncResult{
		Mode: mode, Committers: committers, Txns: txns, Elapsed: elapsed,
		Throughput:     float64(txns) / elapsed.Seconds(),
		Syncs:          syncs,
		SyncsPerCommit: float64(syncs) / float64(txns),
		MeanCohort:     mean,
	}, nil
}

// TransientFsyncTable renders the transient-primary series.
func TransientFsyncTable(rs []TransientFsyncResult) *metrics.Table {
	t := &metrics.Table{
		Title:  "shipscaling — transient primary: group fsync vs per-commit sync",
		Header: []string{"mode", "committers", "txns", "elapsed", "commits/sec", "syncs", "syncs/commit", "mean cohort"},
	}
	for _, r := range rs {
		t.AddRow(
			r.Mode,
			fmt.Sprintf("%d", r.Committers),
			fmt.Sprintf("%d", r.Txns),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%d", r.Syncs),
			fmt.Sprintf("%.3f", r.SyncsPerCommit),
			fmt.Sprintf("%.2f", r.MeanCohort),
		)
	}
	return t
}
