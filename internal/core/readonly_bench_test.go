package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
)

// BenchmarkReadOnlyTxn runs whole read-only transactions through the
// engine's snapshot fast path: a transaction skips OnRead shard
// registration, the validation serial ticket, and the commit group
// entirely. LogDisk keeps the group committer live so the skipped work
// is real.
func BenchmarkReadOnlyTxn(b *testing.B) {
	const nObjects = 1024
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db := store.New()
			for i := 0; i < nObjects; i++ {
				db.Put(store.ObjectID(i), []byte{0, 0, 0, 0})
			}
			cfg := Config{Workers: workers, MaxRestarts: 100}
			mem := logstore.NewMem()
			e := NewEngine(cfg, db, NewGroupCommitter(mem, GroupOptions{MaxCohort: 1}), LogDisk)
			defer e.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			per := b.N / workers
			if per == 0 {
				per = 1
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) * 99991))
					for n := 0; n < per; n++ {
						base := rng.Intn(nObjects - 4)
						err := e.Execute(Request{Deadline: time.Second, ReadOnly: true, Do: func(tx *Tx) error {
							for i := 0; i < 4; i++ {
								if _, err := tx.ReadView(store.ObjectID(base + i)); err != nil {
									return err
								}
							}
							return nil
						}})
						if err != nil {
							panic(err)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
