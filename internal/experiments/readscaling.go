package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/store"
)

// ReadScalingResult is one cell of the read-only fast-path series:
// real engine throughput for a read-dominated mix with the snapshot
// fast path on or ablated, plus how the read-only population actually
// committed (fast certifications vs fallbacks into full validation).
type ReadScalingResult struct {
	Workers     int
	FastPath    bool
	Txns        int
	Committed   uint64
	ROFast      uint64
	ROFallbacks uint64
	Elapsed     time.Duration
	Throughput  float64 // committed transactions per second
	Speedup     float64 // fast path vs ablation at the same worker count
}

// ReadScaling measures end-to-end throughput of a telecom-shaped
// read-dominated workload — 90% read-only requests (GET-style lookups)
// against 10% small updates — with the read-only snapshot fast path
// enabled and ablated. A fast-path read-only transaction skips OnRead
// shard registration, the validation serial ticket and the commit
// group; the ablation pays the full OCC pipeline for every request.
// LogDiscard keeps log-record building on the update path without
// mirror or disk noise, so the delta isolates the concurrency-control
// work the fast path removes.
func ReadScaling(objects, txns int, workers []int) ([]ReadScalingResult, error) {
	if objects <= 0 {
		objects = 1024
	}
	if txns <= 0 {
		txns = 20000
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	var out []ReadScalingResult
	for _, w := range workers {
		var ablated float64
		for _, fast := range []bool{false, true} {
			r, err := readScalingPoint(objects, txns, w, fast)
			if err != nil {
				return out, err
			}
			if !fast {
				ablated = r.Throughput
			} else if ablated > 0 {
				r.Speedup = r.Throughput / ablated
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func readScalingPoint(objects, txns, workers int, fastPath bool) (ReadScalingResult, error) {
	db := store.New()
	for i := 0; i < objects; i++ {
		db.Put(store.ObjectID(i), []byte{0, 0, 0, 0})
	}
	cfg := core.Config{Workers: workers, MaxRestarts: 100, NoReadOnlyFastPath: !fastPath}
	n := core.NewNode("readscaling", cfg, db, logstore.NewMem())
	if err := n.ServePrimary("", core.LogDiscard); err != nil {
		return ReadScalingResult{}, err
	}
	defer n.Close()

	var committed atomic.Uint64
	val := []byte{1, 2, 3, 4}
	per := txns / workers
	if per == 0 {
		per = 1
	}
	var wg sync.WaitGroup
	start := simtime.Wall.Now()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*15485863 + 1))
			for i := 0; i < per; i++ {
				if rng.Intn(100) < 90 {
					// GET-style read-only request over a small key set.
					base := rng.Intn(objects - 4)
					err := n.Execute(core.Request{ReadOnly: true, Do: func(tx *core.Tx) error {
						for j := 0; j < 4; j++ {
							if _, err := tx.ReadView(store.ObjectID(base + j)); err != nil {
								return err
							}
						}
						return nil
					}})
					if err == nil {
						committed.Add(1)
					}
					continue
				}
				obj := store.ObjectID(rng.Intn(objects))
				err := n.Execute(core.Request{Do: func(tx *core.Tx) error {
					return tx.Write(obj, val)
				}})
				if err == nil {
					committed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := simtime.Wall.Now().Sub(start)
	st := n.Engine().Controller().Stats()
	return ReadScalingResult{
		Workers: workers, FastPath: fastPath, Txns: per * workers,
		Committed: committed.Load(), ROFast: st.ROFastCommits, ROFallbacks: st.ROFallbacks,
		Elapsed:    elapsed,
		Throughput: float64(committed.Load()) / elapsed.Seconds(),
	}, nil
}

// ReadScalingTable renders the series grouped by worker count, ablation
// row first so the speedup column reads as "what the fast path buys".
func ReadScalingTable(rs []ReadScalingResult) *metrics.Table {
	t := &metrics.Table{
		Title:  "read-only fast path — engine throughput, 90% read-only mix",
		Header: []string{"workers", "fast path", "txns", "committed", "ro fast", "ro fallback", "elapsed", "commits/sec", "speedup"},
	}
	for _, r := range rs {
		mode, speed := "off", ""
		if r.FastPath {
			mode = "on"
			speed = fmt.Sprintf("%.2fx", r.Speedup)
		}
		t.AddRow(
			fmt.Sprintf("%d", r.Workers),
			mode,
			fmt.Sprintf("%d", r.Txns),
			fmt.Sprintf("%d", r.Committed),
			fmt.Sprintf("%d", r.ROFast),
			fmt.Sprintf("%d", r.ROFallbacks),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			speed,
		)
	}
	return t
}
