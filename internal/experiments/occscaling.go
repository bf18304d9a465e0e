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

// OCCScalingResult is one cell of the controller-sharding series: real
// engine commit throughput with Workers executor goroutines under a
// given write mix.
type OCCScalingResult struct {
	Workers    int
	WritePct   int
	Txns       int
	Committed  uint64
	Elapsed    time.Duration
	Throughput float64 // committed transactions per second
	Speedup    float64 // vs the first (usually 1) worker count of the same mix
}

// OCCScaling measures multicore commit throughput through the whole
// engine — scheduler, sharded OCC validation, write phase, log-record
// building (LogDiscard, so no mirror or disk noise) — as a function of
// the worker count and write mix. With the sharded controller the only
// global section left on the commit path is the short validation
// ticket, so throughput should rise with workers on multicore hardware;
// on a single-CPU host the series mainly demonstrates that extra
// workers do not cost throughput.
func OCCScaling(objects, txns int, workers, writePcts []int) ([]OCCScalingResult, error) {
	if objects <= 0 {
		objects = 1024
	}
	if txns <= 0 {
		txns = 20000
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	if len(writePcts) == 0 {
		writePcts = []int{10, 60}
	}
	var out []OCCScalingResult
	for _, pct := range writePcts {
		var base float64
		for i, w := range workers {
			r, err := occScalingPoint(objects, txns, w, pct)
			if err != nil {
				return out, err
			}
			if i == 0 {
				base = r.Throughput
			}
			if base > 0 {
				r.Speedup = r.Throughput / base
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func occScalingPoint(objects, txns, workers, writePct int) (OCCScalingResult, error) {
	db := store.New()
	for i := 0; i < objects; i++ {
		db.Put(store.ObjectID(i), []byte{0, 0, 0, 0})
	}
	n := core.NewNode("occscaling", core.Config{Workers: workers, MaxRestarts: 100}, db, logstore.NewMem())
	if err := n.ServePrimary("", core.LogDiscard); err != nil {
		return OCCScalingResult{}, err
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
			rng := rand.New(rand.NewSource(int64(w)*6700417 + 1))
			for i := 0; i < per; i++ {
				// Pre-draw the op script so restarts replay the same
				// accesses (the body must be a pure function of its reads).
				ops := make([]int, 6)
				for j := range ops {
					ops[j] = rng.Intn(100)*objects + rng.Intn(objects)
				}
				err := n.Execute(core.Request{Do: func(tx *core.Tx) error {
					for _, op := range ops {
						obj := store.ObjectID(op % objects)
						if op/objects < writePct {
							if err := tx.Write(obj, val); err != nil {
								return err
							}
						} else if _, err := tx.ReadView(obj); err != nil {
							return err
						}
					}
					return nil
				}})
				if err == nil {
					committed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := simtime.Wall.Now().Sub(start)
	return OCCScalingResult{
		Workers: workers, WritePct: writePct, Txns: per * workers,
		Committed: committed.Load(), Elapsed: elapsed,
		Throughput: float64(committed.Load()) / elapsed.Seconds(),
	}, nil
}

// OCCScalingTable renders the series grouped by write mix.
func OCCScalingTable(rs []OCCScalingResult) *metrics.Table {
	t := &metrics.Table{
		Title:  "controller sharding — engine commit throughput vs workers and write mix",
		Header: []string{"write %", "workers", "txns", "committed", "elapsed", "commits/sec", "speedup"},
	}
	for _, r := range rs {
		t.AddRow(
			fmt.Sprintf("%d", r.WritePct),
			fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%d", r.Txns),
			fmt.Sprintf("%d", r.Committed),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2fx", r.Speedup),
		)
	}
	return t
}
