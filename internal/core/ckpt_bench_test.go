package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/telecom"
	"repro/internal/wal"
)

// benchNode builds a serving primary with objs populated objects and
// background committers hammering a contended id range, so checkpoint
// pauses are measured against live commit traffic.
func benchNode(b *testing.B, objs int) (*Node, func()) {
	b.Helper()
	db := store.New()
	val := make([]byte, 64)
	for i := 0; i < objs; i++ {
		db.Put(store.ObjectID(i), val)
	}
	n := NewNode("bench", fastCfg(), db, logstore.NewMem())
	if err := n.ServePrimary("", LogDisk); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			img := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := store.ObjectID(rng.Intn(objs))
				n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
					return tx.Write(id, img)
				}})
			}
		}(int64(w + 1))
	}
	return n, func() {
		close(stop)
		wg.Wait()
		n.Close()
	}
}

// BenchmarkCheckpointPause measures the commit-visible pause of one
// fuzzy checkpoint cycle: validation stalls for at most one stripe copy
// at a time. max-pause-ns is the longest single stall a committer could
// see behind the checkpointer — the paper's availability argument in one
// number.
func BenchmarkCheckpointPause(b *testing.B) {
	for _, objs := range []int{10000, 40000} {
		b.Run(fmt.Sprintf("fuzzy/objs=%d", objs), func(b *testing.B) {
			n, cleanup := benchNode(b, objs)
			defer cleanup()
			var bytesOut int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := n.FuzzyCheckpoint(io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				bytesOut += int64(st.Bytes)
			}
			b.StopTimer()
			b.ReportMetric(float64(n.CheckpointPauses().Max().Nanoseconds()), "max-pause-ns")
			b.ReportMetric(float64(n.CheckpointPauses().Quantile(0.99).Nanoseconds()), "p99-pause-ns")
			b.ReportMetric(float64(bytesOut)/float64(b.N), "ckpt-bytes/op")
		})
	}
}

// BenchmarkRecoverFromCheckpoint measures cold-start restore: load a
// fuzzy checkpoint and replay the log tail above the stripe watermarks.
func BenchmarkRecoverFromCheckpoint(b *testing.B) {
	for _, objs := range []int{10000, 40000} {
		b.Run(fmt.Sprintf("objs=%d", objs), func(b *testing.B) {
			dir := b.TempDir()
			log := logstore.NewMem()
			n, cleanup := func() (*Node, func()) {
				db := store.New()
				val := make([]byte, 64)
				for i := 0; i < objs; i++ {
					db.Put(store.ObjectID(i), val)
				}
				n := NewNode("seed", fastCfg(), db, log)
				if err := n.ServePrimary("", LogDisk); err != nil {
					b.Fatal(err)
				}
				return n, func() { n.Close() }
			}()
			// A checkpoint plus a tail of later commits to replay over it.
			if _, err := n.CheckpointToDir(dir); err != nil {
				b.Fatal(err)
			}
			img := make([]byte, 64)
			for i := 0; i < 1000; i++ {
				id := store.ObjectID(i % objs)
				if err := n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
					return tx.Write(id, img)
				}}); err != nil {
					b.Fatal(err)
				}
			}
			cleanup()
			tail := log.SyncedBytes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n2 := NewNode("re", fastCfg(), store.New(), logstore.NewMem())
				st, err := recoverNode(n2, dir, bytes.NewReader(tail))
				if err != nil {
					b.Fatal(err)
				}
				if st.Applied != 1000 {
					b.Fatalf("tail applied = %d", st.Applied)
				}
			}
		})
	}
}

// BenchmarkCheckpointImage measures the three steps of a mirror join's
// database image at the paper's 30 000 number-translation entries:
// encode is one fuzzy checkpoint cycle with a cold stripe cache (every
// stripe copied and encoded, as for a joining mirror), decode is
// wal.DecodeCheckpoint of that image, and install is Replayer.Install of
// the decoded checkpoint into a store.
func BenchmarkCheckpointImage(b *testing.B) {
	const objs = 30000
	db := store.New()
	for i := 0; i < objs; i++ {
		db.Put(telecom.RouteEntry(i))
	}
	n := NewNode("bench", fastCfg(), db, logstore.NewMem())
	if err := n.ServePrimary("", LogDisk); err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	var img bytes.Buffer
	if _, err := n.FuzzyCheckpoint(&img); err != nil {
		b.Fatal(err)
	}
	decode := func(b *testing.B) *wal.Checkpoint {
		ck, _, err := wal.DecodeCheckpoint(img.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		return ck
	}

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.ckptMu.Lock()
			n.ckptCache = nil // cold: every stripe is copied and encoded
			n.ckptMu.Unlock()
			if _, err := n.FuzzyCheckpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decode(b)
		}
	})
	b.Run("install", func(b *testing.B) {
		ck := decode(b)
		target := store.New()
		rp := wal.NewReplayer(target)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rp.Install(ck)
		}
		b.StopTimer()
		if target.Len() != objs {
			b.Fatalf("installed %d objects, want %d", target.Len(), objs)
		}
	})
}
