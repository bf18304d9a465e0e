package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/wal"
)

// RecoveryScalingResult is one cell of the parallel-redo takeover
// series: how long replaying a log of LogRecords update transactions
// takes with Workers apply workers.
type RecoveryScalingResult struct {
	Objects    int
	LogRecords int
	Workers    int
	Replay     time.Duration
	Speedup    float64 // sequential replay time / this replay time
}

// RecoveryScaling measures the recovery axis the parallel redo pipeline
// attacks: the time to replay a log tail back into an in-memory store,
// as a function of log size and worker count. The paper's availability
// story needs a failed node back in mirror role quickly; replay time is
// the dominant term once the log has grown, and with conflict-aware
// parallel redo it should flatten as workers are added (on real
// multicore hardware — a single-CPU host shows only the scheduling
// overhead). The log is built the way a mirror stores it (groups in
// validation order, ~5 writes per transaction over a uniform key space),
// and replay correctness is checked against the sequential pass.
func RecoveryScaling(objects int, logSizes, workers []int) ([]RecoveryScalingResult, error) {
	if objects <= 0 {
		objects = 30000
	}
	if len(logSizes) == 0 {
		logSizes = []int{10000, 50000, 200000}
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	var out []RecoveryScalingResult
	for _, n := range logSizes {
		logBytes := updateLog(objects, n)
		seq := store.New()
		seqStart := simtime.Wall.Now()
		if _, err := wal.Recover(bytes.NewReader(logBytes), seq); err != nil {
			return out, err
		}
		seqTime := simtime.Wall.Now().Sub(seqStart)
		want := seq.Checksum()
		for _, w := range workers {
			db := store.New()
			start := simtime.Wall.Now()
			if _, err := wal.ParallelRecover(bytes.NewReader(logBytes), db, w); err != nil {
				return out, err
			}
			elapsed := simtime.Wall.Now().Sub(start)
			if w <= 1 {
				elapsed = seqTime // the measured sequential pass is the baseline
			}
			if db.Checksum() != want {
				return out, fmt.Errorf("experiments: parallel replay diverged at %d workers", w)
			}
			out = append(out, RecoveryScalingResult{
				Objects: objects, LogRecords: n, Workers: w,
				Replay:  elapsed,
				Speedup: seqTime.Seconds() / elapsed.Seconds(),
			})
		}
	}
	return out, nil
}

// updateLog builds a validation-order log of n single-to-many-write
// update transactions over a key space of the given size.
func updateLog(objects, n int) []byte {
	var buf bytes.Buffer
	img := []byte("updated-value-0123456789abcdef")
	for i := 1; i <= n; i++ {
		writes := 1 + i%5
		for w := 0; w < writes; w++ {
			mustEncode(&buf, &wal.Record{
				Type: wal.TypeWrite, TxnID: txnID(i),
				ObjectID:   store.ObjectID((i*7 + w*131) % objects),
				AfterImage: img,
			})
		}
		mustEncode(&buf, &wal.Record{
			Type: wal.TypeCommit, TxnID: txnID(i),
			SerialOrder: uint64(i), CommitTS: uint64(i) * 65536,
		})
	}
	return buf.Bytes()
}

// RecoveryScalingTable renders the series grouped by log size.
func RecoveryScalingTable(rs []RecoveryScalingResult) *metrics.Table {
	t := &metrics.Table{
		Title:  "parallel redo — log replay time vs size and workers (rejoin/restart axis)",
		Header: []string{"objects", "log txns", "workers", "replay", "speedup"},
	}
	for _, r := range rs {
		t.AddRow(
			fmt.Sprintf("%d", r.Objects),
			fmt.Sprintf("%d", r.LogRecords),
			fmt.Sprintf("%d", r.Workers),
			r.Replay.Round(100*time.Microsecond).String(),
			fmt.Sprintf("%.2fx", r.Speedup),
		)
	}
	return t
}

// mustEncode appends a record to a synthetic log fixture. The targets
// are in-memory buffers and the records are well formed, so a failure
// here is a bug in the fixture builder, not an I/O condition callers
// could handle.
func mustEncode(w io.Writer, r *wal.Record) {
	if err := wal.Encode(w, r); err != nil {
		panic(fmt.Sprintf("experiments: encode fixture record: %v", err))
	}
}
