package occ

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
)

// TestConcurrentSerializability hammers one controller from several
// goroutines and checks the committed history afterwards: commit
// timestamps are unique and every committed read observed exactly the
// latest committed write with a smaller timestamp. Under -race this
// also proves the sharded hot path is data-race free.
func TestConcurrentSerializability(t *testing.T) {
	for _, k := range []Kind{DATI, TI, DA, BC} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			const (
				workers    = 4
				nObjects   = 16
				perWorker  = 400
				maxRetries = 50
			)
			db := store.New()
			for i := 0; i < nObjects; i++ {
				db.Put(store.ObjectID(i), []byte{0})
			}
			c := NewController(k, db)

			var (
				histMu  sync.Mutex
				history []histEntry
				nextID  atomic.Uint64
			)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) * 7919))
					for n := 0; n < perWorker; n++ {
						var entry *histEntry
						for attempt := 0; attempt < maxRetries; attempt++ {
							tx := txn.New(txn.ID(nextID.Add(1)), txn.Firm, 0, txn.NoDeadline)
							c.Begin(tx)
							ok := true
							for op := 0; op < 2+rng.Intn(4) && ok; op++ {
								obj := store.ObjectID(rng.Intn(nObjects))
								if _, dead := c.Doomed(tx); dead {
									ok = false
									break
								}
								if rng.Intn(100) < 60 {
									if _, found := tx.Read(db, obj); found {
										if wts, obs := tx.ObservedWriteTS(obj); obs {
											ok = c.OnRead(tx, obj, wts)
										}
									}
								} else {
									tx.StageWrite(obj, []byte{byte(w), byte(n), byte(attempt)})
									ok = c.OnWrite(tx, obj)
								}
							}
							if ok {
								if _, dead := c.Doomed(tx); dead {
									ok = false
								}
							}
							if ok {
								if r := c.Validate(tx); r.OK {
									entry = &histEntry{
										ts:     tx.CommitTS,
										reads:  append([]txn.ReadEntry(nil), tx.ReadSet()...),
										writes: append([]store.ObjectID(nil), tx.WriteIDs()...),
									}
								}
							}
							c.Finish(tx)
							if entry != nil {
								break
							}
						}
						if entry != nil {
							histMu.Lock()
							history = append(history, *entry)
							histMu.Unlock()
						}
					}
				}()
			}
			wg.Wait()

			if len(history) < workers*perWorker/2 {
				t.Fatalf("%v: only %d/%d commits — harness starved", k, len(history), workers*perWorker)
			}
			seen := map[uint64]bool{}
			for _, h := range history {
				if seen[h.ts] {
					t.Fatalf("%v: duplicate commit timestamp %d", k, h.ts)
				}
				seen[h.ts] = true
			}
			writersOf := map[store.ObjectID][]uint64{}
			for _, h := range history {
				for _, w := range h.writes {
					writersOf[w] = append(writersOf[w], h.ts)
				}
			}
			for _, h := range history {
				for _, re := range h.reads {
					want := uint64(0)
					for _, wts := range writersOf[re.ID] {
						if wts < h.ts && wts > want {
							want = wts
						}
					}
					if re.WriteTS != want {
						t.Fatalf("%v: txn@ts=%d read obj %d written@%d, but latest earlier committed write is @%d — history not serializable",
							k, h.ts, re.ID, re.WriteTS, want)
					}
					if re.WriteTS >= h.ts {
						t.Fatalf("%v: read from the future: read@%d ts=%d", k, re.WriteTS, h.ts)
					}
				}
			}
			if c.ActiveCount() != 0 {
				t.Fatalf("%v: actives leaked: %d", k, c.ActiveCount())
			}
		})
	}
}

// TestConcurrentWithFrozenQuiesces checks that WithFrozen observes a
// transaction-consistent database while validations race it: the write
// phase now runs outside the controller ticket, so WithFrozen must
// drain in-flight applies before letting the snapshot run.
func TestConcurrentWithFrozenQuiesces(t *testing.T) {
	const nObjects = 8
	db := store.New()
	for i := 0; i < nObjects; i++ {
		db.Put(store.ObjectID(i), []byte{0, 0})
	}
	c := NewController(DATI, db)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 31))
			id := uint64(w) << 32
			for {
				select {
				case <-stop:
					return
				default:
				}
				id++
				tx := txn.New(txn.ID(id), txn.Firm, 0, txn.NoDeadline)
				c.Begin(tx)
				// Write every object with the same tag so a torn write
				// phase is visible as mixed tags across objects.
				tag := []byte{byte(id), byte(id >> 8)}
				okAll := true
				for i := 0; i < nObjects && okAll; i++ {
					tx.StageWrite(store.ObjectID(i), tag)
					okAll = c.OnWrite(tx, store.ObjectID(i))
				}
				if okAll {
					c.Validate(tx)
				}
				c.Finish(tx)
				if rng.Intn(64) == 0 {
					c.LastSerial() // sprinkle ticket traffic
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		c.WithFrozen(func(uint64) {
			snap := db.Snapshot()
			if len(snap) != nObjects {
				t.Errorf("snapshot has %d objects, want %d", len(snap), nObjects)
				return
			}
			first := snap[0].Value
			for _, rec := range snap {
				if string(rec.Value) != string(first) {
					t.Errorf("torn frozen snapshot: object %d has tag %v, object %d has tag %v",
						snap[0].ID, first, rec.ID, rec.Value)
					return
				}
			}
		})
	}
	close(stop)
	wg.Wait()
}

// TestDoomedPollFastPath is the regression test for the lock-free doom
// poll: the per-operation Doomed check must not allocate. (It compiles
// down to one atomic load on the transaction; any future reintroduction
// of map lookups or lock acquisition on this path shows up as
// allocations or as contention in BenchmarkDoomedPoll.)
func TestDoomedPollFastPath(t *testing.T) {
	c, _ := newController(DATI)
	tx := txn.New(1, txn.Firm, 0, txn.NoDeadline)
	c.Begin(tx)
	defer c.Finish(tx)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, dead := c.Doomed(tx); dead {
			t.Fatal("unexpectedly doomed")
		}
	}); allocs != 0 {
		t.Fatalf("Doomed allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkDoomedPoll measures the per-operation doom poll in isolation.
func BenchmarkDoomedPoll(b *testing.B) {
	db := store.New()
	c := NewController(DATI, db)
	tx := txn.New(1, txn.Firm, 0, txn.NoDeadline)
	c.Begin(tx)
	defer c.Finish(tx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, dead := c.Doomed(tx); dead {
			b.Fatal("doomed")
		}
	}
}

// BenchmarkOCCContention runs full transactions (begin, reads/writes
// with registration, validate, finish) against one DATI controller from
// a fixed number of worker goroutines, for a read-mostly and a
// write-heavy mix, over 30 000 uniform ids (the benchmark workload's key
// space). On a multicore host throughput should rise with the worker
// count: only the short validation ticket is global.
func BenchmarkOCCContention(b *testing.B) {
	const nObjects = 30000
	mixes := []struct {
		name     string
		writePct int
	}{
		{"readmostly", 10},
		{"writeheavy", 60},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mix := range mixes {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, mix.name), func(b *testing.B) {
				db := store.New()
				for i := 0; i < nObjects; i++ {
					db.Put(store.ObjectID(i), []byte{0, 0, 0, 0})
				}
				c := NewController(DATI, db)
				var nextID atomic.Uint64
				var committed atomic.Uint64
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
						rng := rand.New(rand.NewSource(int64(w) * 104729))
						val := []byte{1, 2, 3, 4}
						for n := 0; n < per; n++ {
							tx := txn.New(txn.ID(nextID.Add(1)), txn.Firm, 0, txn.NoDeadline)
							c.Begin(tx)
							ok := true
							for op := 0; op < 6 && ok; op++ {
								obj := store.ObjectID(rng.Intn(nObjects))
								if _, dead := c.Doomed(tx); dead {
									ok = false
									break
								}
								if rng.Intn(100) < mix.writePct {
									tx.StageWrite(obj, val)
									ok = c.OnWrite(tx, obj)
								} else {
									if _, found := tx.ReadView(db, obj); found {
										if wts, obs := tx.ObservedWriteTS(obj); obs {
											ok = c.OnRead(tx, obj, wts)
										}
									}
								}
							}
							if ok {
								if r := c.Validate(tx); r.OK {
									committed.Add(1)
								}
							}
							c.Finish(tx)
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

// BenchmarkValidateAfterCommits times one DATI blind-write transaction
// over 30 000 uniform ids after a number of prior commits. The fresh
// timestamp pick jumps over the run of issued slots, so ns/op is flat in
// the prior count; a per-slot walk would grow with it.
func BenchmarkValidateAfterCommits(b *testing.B) {
	const nObjects = 30000
	for _, prior := range []int{0, 100000} {
		b.Run(fmt.Sprintf("prior=%d", prior), func(b *testing.B) {
			db := store.New()
			for i := 0; i < nObjects; i++ {
				db.Put(store.ObjectID(i), []byte{0, 0, 0, 0})
			}
			c := NewController(DATI, db)
			rng := rand.New(rand.NewSource(1))
			val := []byte{1, 2, 3, 4}
			var nextID txn.ID
			commit := func() {
				nextID++
				obj := store.ObjectID(rng.Intn(nObjects))
				tx := txn.New(nextID, txn.Firm, 0, txn.NoDeadline)
				c.Begin(tx)
				tx.StageWrite(obj, val)
				c.OnWrite(tx, obj)
				if r := c.Validate(tx); !r.OK {
					b.Fatal("blind write rejected")
				}
				c.Finish(tx)
			}
			for i := 0; i < prior; i++ {
				commit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit()
			}
		})
	}
}
