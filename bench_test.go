package rodain_test

// Benchmark harness: one benchmark per figure/table of the paper (quick
// settings — `cmd/rodain-experiments` runs the paper-scale versions) plus
// micro-benchmarks of the load-bearing components. Figure benchmarks
// report the key series points as custom metrics (miss ratios in
// percent).

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	. "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/logstore"
	"repro/internal/occ"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telecom"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

func benchOptions() experiments.Options {
	return experiments.Options{Reps: 1, Count: 1200, DBSize: 5000, Seed: 1}
}

// reportSeries exposes each series' value at the given x as a metric.
func reportSeries(b *testing.B, r experiments.Result, x float64, unitPrefix string) {
	b.Helper()
	for _, s := range r.Series {
		for i := range s.X {
			if s.X[i] == x {
				b.ReportMetric(100*s.Y[i], fmt.Sprintf("%s:%s_miss%%", unitPrefix, sanitize(s.Name)))
			}
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '-')
		}
	}
	return string(out)
}

// BenchmarkFig2a regenerates Fig 2(a): normal vs transient mode with
// true log writes, write ratio 5%, miss ratio vs arrival rate.
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2a(benchOptions())
		reportSeries(b, r, 300, "at300tps")
	}
}

// BenchmarkFig2b regenerates Fig 2(b): the same comparison across write
// fractions at 300 txn/s.
func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2b(benchOptions())
		reportSeries(b, r, 0.5, "atwf50")
	}
}

// BenchmarkFig3a regenerates Fig 3(a): no logs vs 1 node vs 2 nodes,
// disk off, write ratio 0%.
func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3a(benchOptions())
		reportSeries(b, r, 400, "at400tps")
	}
}

// BenchmarkFig3b is Fig 3(b): write ratio 20%.
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3b(benchOptions())
		reportSeries(b, r, 400, "at400tps")
	}
}

// BenchmarkFig3c is Fig 3(c): write ratio 80%.
func BenchmarkFig3c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3c(benchOptions())
		reportSeries(b, r, 400, "at400tps")
	}
}

// BenchmarkTakeover regenerates the availability comparison (§4 closing
// claim): live mirror takeover vs restart recovery from disk.
func BenchmarkTakeover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Takeover([]int{10000}, 500)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rs[0].TakeoverTime.Microseconds())/1000, "takeover_ms")
		b.ReportMetric(float64(rs[0].RecoveryTime.Microseconds())/1000, "recovery_ms")
	}
}

// BenchmarkProtocolAblation compares OCC-DATI/TI/DA/BC commit counts on
// the contended workload (DESIGN.md §8).
func BenchmarkProtocolAblation(b *testing.B) {
	wl := workload.Config{
		ArrivalRate: 250, WriteFraction: 0.6, DBSize: 30,
		ReadsPerTxn: 4, WritesPerTxn: 2,
		ReadDeadline: 50 * time.Millisecond, WriteDeadline: 150 * time.Millisecond,
		ValueSize: 16, Count: 2000, Seed: 3, NonRTFraction: 0.3,
	}
	for i := 0; i < b.N; i++ {
		for _, k := range []occ.Kind{occ.DATI, occ.BC} {
			r := sim.Run(sim.Config{Workload: wl, LogMode: core.LogNone, Protocol: k, NonRTReserve: 0.1})
			b.ReportMetric(float64(r.Outcome.Committed), sanitize(k.String())+"_commits")
		}
	}
}

// BenchmarkOverloadAblation compares the system with and without the
// overload manager past saturation.
func BenchmarkOverloadAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.OverloadAblation(experiments.Options{Reps: 1, Count: 1500, DBSize: 5000, Seed: 1})
		if len(tab.Rows) != 6 {
			b.Fatal("ablation failed")
		}
	}
}

// BenchmarkPredictability measures the commit-wait distribution per
// logging mode — the paper's "more predictable commit phase" argument.
func BenchmarkPredictability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Predictability(experiments.Options{Reps: 1, Count: 1500, DBSize: 5000, Seed: 1})
		if len(tab.Rows) != 4 {
			b.Fatal("experiment failed")
		}
	}
}

// BenchmarkFailoverTimeline runs the dynamic normal→transient switch.
func BenchmarkFailoverTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.FailoverTimeline(
			experiments.Options{Reps: 1, Count: 2000, DBSize: 5000, Seed: 1},
			180, 5*time.Second)
		if len(tab.Rows) == 0 {
			b.Fatal("empty timeline")
		}
	}
}

// --- micro-benchmarks ---------------------------------------------------

// BenchmarkLogEncode measures redo-record encoding.
func BenchmarkLogEncode(b *testing.B) {
	rec := &wal.Record{Type: wal.TypeWrite, TxnID: 1, ObjectID: 42, AfterImage: make([]byte, 64)}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wal.AppendEncoded(buf[:0], rec)
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkLogDecode measures redo-record decoding.
func BenchmarkLogDecode(b *testing.B) {
	rec := &wal.Record{Type: wal.TypeWrite, TxnID: 1, ObjectID: 42, AfterImage: make([]byte, 64)}
	enc := wal.AppendEncoded(nil, rec)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wal.DecodeNext(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreReadWrite measures raw store operations.
func BenchmarkStoreReadWrite(b *testing.B) {
	db := store.New()
	for i := 0; i < 10000; i++ {
		db.Put(store.ObjectID(i), make([]byte, 32))
	}
	img := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := store.ObjectID(i % 10000)
		if _, ok := db.Get(id); !ok {
			b.Fatal("missing")
		}
		db.Apply(id, img, uint64(i))
	}
}

// BenchmarkOCCValidate measures one conflict-free DATI validation
// including the write phase.
func BenchmarkOCCValidate(b *testing.B) {
	db := store.New()
	for i := 0; i < 10000; i++ {
		db.Put(store.ObjectID(i), make([]byte, 32))
	}
	c := occ.NewController(occ.DATI, db)
	img := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := txn.New(txn.ID(i+1), txn.Firm, 0, txn.NoDeadline)
		c.Begin(t)
		t.Read(db, store.ObjectID(i%10000))
		t.StageWrite(store.ObjectID((i+1)%10000), img)
		if r := c.Validate(t); !r.OK {
			b.Fatal("validation failed")
		}
		c.Finish(t)
	}
}

// BenchmarkDiskCommit measures the transient-mode commit path with one
// sync per commit against an in-memory device (pure software overhead,
// no device latency).
func BenchmarkDiskCommit(b *testing.B) {
	d := core.NewGroupCommitter(logstore.NewMem(), core.GroupOptions{MaxCohort: 1})
	defer d.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &wal.Group{
			Writes: []*wal.Record{{Type: wal.TypeWrite, TxnID: txn.ID(i + 1), ObjectID: 1, AfterImage: make([]byte, 32)}},
			Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(i + 1), SerialOrder: uint64(i + 1), CommitTS: uint64(i+1) * 65536},
		}
		if err := d.Commit(g); err != nil {
			b.Fatal(err)
		}
	}
}

// zeroEntry is the Populate entry of the update benchmarks' table: 32
// zero bytes under id i.
func zeroEntry(i int) (ObjectID, []byte) { return ObjectID(i), make([]byte, 32) }

// BenchmarkEmbeddedUpdate measures a full Update transaction through the
// public API on an embedded node (no logging wait).
func BenchmarkEmbeddedUpdate(b *testing.B) {
	db, err := Open(Options{Durability: DurNone, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.Populate(1000, zeroEntry); err != nil {
		b.Fatal(err)
	}
	img := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.Update(time.Second, func(tx *Tx) error {
			if _, err := tx.Read(ObjectID(i % 1000)); err != nil {
				return err
			}
			return tx.Write(ObjectID(i%1000), img)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShippedCommit measures a full update commit through a live
// primary+mirror pair over loopback TCP — the paper's normal mode.
func BenchmarkShippedCommit(b *testing.B) {
	primary, err := OpenPrimary(Options{Workers: 2}, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	if err := primary.Populate(1000, zeroEntry); err != nil {
		b.Fatal(err)
	}
	mirror, err := OpenMirror(Options{Workers: 2}, primary.ReplAddr(), "")
	if err != nil {
		b.Fatal(err)
	}
	defer mirror.Close()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-primary.Events():
			if ev.Kind == EventMirrorAttached {
				goto attached
			}
		case <-deadline:
			b.Fatal("mirror never attached")
		}
	}
attached:
	img := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := primary.Update(time.Second, func(tx *Tx) error {
			return tx.Write(ObjectID(i%1000), img)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimThroughput measures simulator performance itself:
// simulated transactions per wall second.
func BenchmarkSimThroughput(b *testing.B) {
	wl := workload.Default()
	wl.Count = 2000
	wl.DBSize = 5000
	wl.ArrivalRate = 250
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(sim.Config{Workload: wl, LogMode: core.LogShip, MirrorDisk: true})
	}
	b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "sim-txns/s")
}

// BenchmarkSubscriberCodec measures a subscriber profile's encode and
// decode round trip.
func BenchmarkSubscriberCodec(b *testing.B) {
	sub := telecom.NewSubscriber("+358501234567", "Subscriber 42", true, 10000)
	b.SetBytes(int64(len(sub.Encode())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := telecom.DecodeSubscriber(sub.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover measures single-pass log replay throughput: how fast
// a restarting node rebuilds its database from the stored redo log.
func BenchmarkRecover(b *testing.B) {
	var log bytes.Buffer
	const txns = 5000
	for i := 1; i <= txns; i++ {
		wal.Encode(&log, &wal.Record{
			Type: wal.TypeWrite, TxnID: txn.ID(i),
			ObjectID: store.ObjectID(i % 1000), AfterImage: make([]byte, 64),
		})
		wal.Encode(&log, &wal.Record{
			Type: wal.TypeCommit, TxnID: txn.ID(i),
			SerialOrder: uint64(i), CommitTS: uint64(i) * 65536,
		})
	}
	data := log.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := store.New()
		st, err := wal.Recover(bytes.NewReader(data), db)
		if err != nil || st.Applied != txns {
			b.Fatalf("recover: %+v %v", st, err)
		}
	}
	b.ReportMetric(float64(txns*b.N)/b.Elapsed().Seconds(), "txns/s")
}
