package wal

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
)

// benchLog builds a committed-only log of txns transactions with
// writesPer 64-byte after images each, drawing object ids from idDomain.
// A small domain makes groups overwrite the same objects; a large one
// keeps write sets disjoint, so most writes insert.
func benchLog(txns, writesPer, idDomain int) []byte {
	rng := rand.New(rand.NewSource(42))
	img := make([]byte, 64)
	var buf bytes.Buffer
	for i := 1; i <= txns; i++ {
		for w := 0; w < writesPer; w++ {
			if err := Encode(&buf, &Record{Type: TypeWrite, TxnID: txn.ID(i),
				ObjectID: store.ObjectID(rng.Intn(idDomain)), AfterImage: img}); err != nil {
				panic(err)
			}
		}
		if err := Encode(&buf, &Record{Type: TypeCommit, TxnID: txn.ID(i),
			SerialOrder: uint64(i), CommitTS: uint64(i) * 64}); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// BenchmarkReplay measures full-log replay throughput under low
// contention (write sets effectively disjoint) and high contention (64
// hot objects), and of a log headed by a checkpoint group of 30 000
// objects (as a rejoined mirror stores its state transfer), which the
// group reader reads as one 2.4 MB group. One op = one complete replay:
// group reads and checks, the apply, and the install, which is also the
// mirror's live path minus its log append. The B/s figure is log bytes
// per second.
func BenchmarkReplay(b *testing.B) {
	const txns, writesPer = 3000, 4
	snap := make([]store.Record, 30_000)
	for i := range snap {
		snap[i] = store.Record{ID: store.ObjectID(i), Value: make([]byte, 40), WriteTS: 1}
	}
	for _, c := range []struct {
		name string
		txns int
		log  []byte
	}{
		{"lowContention", txns, benchLog(txns, writesPer, 1<<20)},
		{"highContention", txns, benchLog(txns, writesPer, 64)},
		{"checkpointHead", 1000, append(writeCheckpoint(b, snap, []uint64{0, 0, 0, 0}), benchLog(1000, writesPer, len(snap))...)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.log)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Replay(bytes.NewReader(c.log), NewReplayer(store.New())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.txns)*float64(b.N)/b.Elapsed().Seconds(), "txn/s")
		})
	}
}
