package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wal"
)

// BenchmarkShipperAllocs isolates the normal-mode Log Writer: groups are
// shipped over an in-process pipe to an immediately-acknowledging mirror,
// so the numbers are pure software overhead of the shipping hot path
// (encode, framing, wait/wakeup) with no real network or engine around it.
func BenchmarkShipperAllocs(b *testing.B) {
	a, c := transport.Pipe()
	fm := &fakeMirror{conn: c}
	go fm.run()
	var failed atomic.Bool
	s := NewMirrorShipper(a, 1, ShipperOptions{
		AckTimeout: time.Second,
		Heartbeat:  20 * time.Millisecond,
		OnFailure:  func() { failed.Store(true) },
	})
	s.Start()
	defer func() {
		s.Close()
		c.Close()
	}()

	img := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial := uint64(i + 1)
		g := &wal.Group{
			Writes: []*wal.Record{
				{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID(i % 128), AfterImage: img},
				{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID((i + 1) % 128), AfterImage: img},
			},
			Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial * 65536},
		}
		if err := s.Commit(g); err != nil {
			b.Fatal(err)
		}
	}
	if failed.Load() {
		b.Fatal("mirror connection failed during benchmark")
	}
}

// BenchmarkMirrorApplyParallel measures the mirror's full receive path
// for one-group log frames — record decode, grouping, the database
// apply and the ordered log append — under disjoint and hot-object write
// sets.
func BenchmarkMirrorApplyParallel(b *testing.B) {
	img := make([]byte, 64)
	for _, c := range []struct {
		name     string
		idDomain int
	}{
		{"lowContention", 1 << 20},
		{"highContention", 64},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			frames := make([][]byte, 4096)
			for i := range frames {
				serial := uint64(i + 1)
				g := &wal.Group{
					Writes: []*wal.Record{
						{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID(rng.Intn(c.idDomain)), AfterImage: img},
						{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID(rng.Intn(c.idDomain)), AfterImage: img},
					},
					Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial * 65536},
				}
				frames[i] = logFrame(g).Payload
			}
			m := NewMirrorEngine(Config{}, store.New(), logstore.NewMem())
			rp := wal.NewReplayer(m.db)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.receive(rp, frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineParallel runs whole transactions through the engine —
// scheduler, OCC validation, write phase, log-record building — with a
// growing worker pool. With the sharded controller the only remaining
// global section is the validation ticket, so on a multicore host
// commits/sec should rise with workers; the old single-mutex controller
// flatlined here. LogDiscard keeps log building on the path without a
// mirror or disk; LogNone strips logging entirely for contrast. The
// 30 000 uniform ids match the benchmark workload's key space.
func BenchmarkEngineParallel(b *testing.B) {
	const nObjects = 30000
	mixes := []struct {
		name     string
		writePct int
	}{
		{"readmostly", 10},
		{"writeheavy", 60},
	}
	for _, logMode := range []LogMode{LogDiscard, LogNone} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, mix := range mixes {
				b.Run(fmt.Sprintf("log=%s/workers=%d/%s", logMode, workers, mix.name), func(b *testing.B) {
					db := store.New()
					for i := 0; i < nObjects; i++ {
						db.Put(store.ObjectID(i), []byte{0, 0, 0, 0})
					}
					e := NewEngine(Config{Workers: workers, MaxRestarts: 100},
						db, buildCommitter(logMode, nil, Config{}.withDefaults()), logMode)
					defer e.Stop()
					var committed atomic.Uint64
					val := []byte{1, 2, 3, 4}
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					per := b.N / workers
					if per == 0 {
						per = 1
					}
					for w := 0; w < workers; w++ {
						w := w
						wg.Add(1)
						go func() {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(w) * 99991))
							for n := 0; n < per; n++ {
								ops := make([]int, 6)
								for i := range ops {
									ops[i] = rng.Intn(100)*nObjects + rng.Intn(nObjects)
								}
								err := e.Execute(Request{Do: func(tx *Tx) error {
									for _, op := range ops {
										obj := store.ObjectID(op % nObjects)
										if op/nObjects < mix.writePct {
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
					b.StopTimer()
					b.ReportMetric(float64(committed.Load())/b.Elapsed().Seconds(), "commits/sec")
				})
			}
		}
	}
}

// BenchmarkGroupCommit compares cohort-batched shipping against strict
// per-transaction shipping through the full Log Writer → wire → mirror →
// cumulative-ack loop, as the concurrent committer count grows. The
// grouped mode amortizes the encode pass and the transport flush across
// the cohort, so at high committer counts its commits/sec should pull
// clearly ahead of mode=pertxn (the acceptance criterion at 8+).
func BenchmarkGroupCommit(b *testing.B) {
	modes := []struct {
		name string
		opts ShipperOptions
	}{
		{"grouped", ShipperOptions{
			AckTimeout: 10 * time.Second, Heartbeat: 50 * time.Millisecond,
			MaxCohort: DefaultMaxCohort,
		}},
		{"pertxn", ShipperOptions{
			AckTimeout: 10 * time.Second, Heartbeat: 50 * time.Millisecond,
			MaxCohort: 1, // one group per wire batch
		}},
	}
	img := make([]byte, 64)
	for _, mode := range modes {
		for _, committers := range []int{1, 4, 8, 16} {
			b.Run(fmt.Sprintf("mode=%s/committers=%d", mode.name, committers), func(b *testing.B) {
				s, _, stop := mirrorPairShipper(b, mode.opts)
				defer stop()
				var next atomic.Uint64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for w := 0; w < committers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							serial := next.Add(1)
							if serial > uint64(b.N) {
								return
							}
							g := &wal.Group{
								Writes: []*wal.Record{
									{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID(serial % 128), AfterImage: img},
									{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: store.ObjectID((serial + 1) % 128), AfterImage: img},
								},
								Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial * 65536},
							}
							if err := s.Commit(g); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/sec")
				st := s.Stats()
				if st.Cohorts > 0 {
					b.ReportMetric(float64(st.GroupsShipped)/float64(st.Cohorts), "groups/batch")
				}
			})
		}
	}
}

// BenchmarkTransientFsync compares the leader/follower group-fsync
// committer against the same committer at MaxCohort 1 (one sync per
// commit) over a device with a realistic sync latency. Every arm is built
// by buildCommitter from the node's defaulted Config, so it measures the
// committer the transient primary runs. syncs/commit should drop well
// below 1 in group mode under concurrent committers — the transient
// primary takes the disk off the per-transaction critical path.
// committers=2 is the end-to-end benchmark's connection count. The
// emulated sync is a clock sleep, which the Go netpoller rounds up to
// 1 ms when every goroutine is parked, so read syncs/commit here, and
// take commits/sec from a real device.
func BenchmarkTransientFsync(b *testing.B) {
	for _, mode := range []string{"group", "persync"} {
		for _, committers := range []int{2, 8} {
			b.Run(fmt.Sprintf("mode=%s/committers=%d", mode, committers), func(b *testing.B) {
				mem := logstore.NewMem()
				slow := logstore.NewDelayed(mem, 50*time.Microsecond)
				var cfg Config
				if mode == "persync" {
					cfg.MaxCohort = 1
				}
				c := buildCommitter(LogDisk, slow, cfg.withDefaults())
				defer c.Close()
				var next atomic.Uint64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for w := 0; w < committers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							serial := next.Add(1)
							if serial > uint64(b.N) {
								return
							}
							if err := c.Commit(diskGroup(serial)); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/sec")
				b.ReportMetric(float64(mem.Stats().Syncs)/float64(b.N), "syncs/commit")
			})
		}
	}
}
