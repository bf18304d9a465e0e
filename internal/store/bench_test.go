package store

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// kv is the operation surface shared by the striped store and the
// single-mutex baseline, so both run the identical benchmark body.
type kv interface {
	Get(ObjectID) ([]byte, bool)
	Apply(ObjectID, []byte, uint64)
}

const benchObjects = 30000 // the paper's database size

func populate(s interface{ Put(ObjectID, []byte) }) {
	v := make([]byte, 32)
	for i := 0; i < benchObjects; i++ {
		s.Put(ObjectID(i), v)
	}
}

// BenchmarkStoreParallel measures concurrent store throughput with
// b.RunParallel at two mixes — read-heavy (5% writes) and 20% writes —
// for the striped store and the pre-striping single-mutex baseline.
// Run with -cpu 8 (or higher) to see the contention difference; ops/sec
// is the inverse of the reported ns/op.
func BenchmarkStoreParallel(b *testing.B) {
	impls := []struct {
		name string
		make func() kv
	}{
		{"striped", func() kv { s := New(); populate(s); return s }},
		{"mutex", func() kv { s := newLockedStore(); populate(s); return s }},
	}
	mixes := []struct {
		name       string
		writeEvery int // 1 write per writeEvery ops
	}{
		{"read95", 20},
		{"write20", 5},
	}
	img := make([]byte, 32)
	for _, impl := range impls {
		for _, mix := range mixes {
			b.Run(impl.name+"/"+mix.name, func(b *testing.B) {
				s := impl.make()
				var ts atomic.Uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					// Per-goroutine prime stride spreads accesses over
					// the whole id space without a per-op RNG in the
					// measured loop.
					i := int(ts.Add(1)) * 104729
					n := 0
					for pb.Next() {
						id := ObjectID((i * 7919) % benchObjects)
						if n%mix.writeEvery == 0 {
							s.Apply(id, img, ts.Add(1))
						} else {
							if _, ok := s.Get(id); !ok {
								b.Fatal("missing object")
							}
						}
						i++
						n++
					}
				})
			})
		}
	}
}

// BenchmarkStoreViewParallel measures the zero-copy read path against
// the cloning Get on the striped store — the per-read allocation the
// borrowed-read contract removes from the engine's read phase.
func BenchmarkStoreViewParallel(b *testing.B) {
	s := New()
	populate(s)
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := s.Get(ObjectID(i % benchObjects)); !ok {
					b.Fatal("missing object")
				}
				i++
			}
		})
	})
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := s.View(ObjectID(i % benchObjects)); !ok {
					b.Fatal("missing object")
				}
				i++
			}
		})
	})
}

// BenchmarkApplyGroup measures the multi-object atomic write step used
// by the engine's write phase and the mirror's group apply.
func BenchmarkApplyGroup(b *testing.B) {
	s := New()
	populate(s)
	img := make([]byte, 32)
	ops := make([]Op, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = Op{ID: ObjectID((i + j*7919) % benchObjects), Value: img}
		}
		s.ApplyGroup(ops, uint64(i+1))
	}
}

// BenchmarkPopulate fills an empty store with n objects by Put, the
// populate a node runs before it serves, and reports the cost per
// insert. An insert is amortised O(1), so ns/insert and B/insert stay
// flat from 10 k to 300 k objects.
func BenchmarkPopulate(b *testing.B) {
	v := make([]byte, 32)
	for _, n := range []int{10_000, 300_000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				s := New()
				for id := 0; id < n; id++ {
					s.Put(ObjectID(id), v)
				}
			}
			runtime.ReadMemStats(&after)
			inserts := float64(b.N) * float64(n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/inserts, "ns/insert")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/inserts, "B/insert")
		})
	}
}
