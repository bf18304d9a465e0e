package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// TestReadOnlyFastPathSkipsLogAndCommitter is the acceptance check for
// the snapshot fast path: a read-only transaction commits without a
// single byte reaching the log store and without a group-commit sync —
// the committer is never involved.
func TestReadOnlyFastPathSkipsLogAndCommitter(t *testing.T) {
	e, _, mem := newTestEngine(t, Config{}, LogDisk)
	// One write first, so the log is live and a silent no-op committer
	// cannot masquerade as a skipped one.
	if err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("w"))
	}}); err != nil {
		t.Fatal(err)
	}
	before := mem.Stats()
	if before.BytesAppended == 0 {
		t.Fatal("sanity: the write must have reached the log")
	}
	const readers = 5
	for i := 0; i < readers; i++ {
		if err := e.Execute(Request{Deadline: time.Second, ReadOnly: true, Do: func(tx *Tx) error {
			_, err := tx.Read(1)
			return err
		}}); err != nil {
			t.Fatal(err)
		}
	}
	after := mem.Stats()
	if after != before {
		t.Fatalf("read-only commits touched the log: before %+v, after %+v", before, after)
	}
	st := e.Controller().Stats()
	if st.ROFastCommits != readers {
		t.Fatalf("ROFastCommits = %d, want %d", st.ROFastCommits, readers)
	}
	if got := e.Outcome().Snapshot().Committed; got != readers+1 {
		t.Fatalf("committed = %d, want %d", got, readers+1)
	}
}

// TestDetectedReadOnlyUsesFastPath: a request that never declares
// ReadOnly but happens to only read still rides the fast path — the
// controller detects the empty write set at validation.
func TestDetectedReadOnlyUsesFastPath(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogNone)
	if err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		_, err := tx.Read(2)
		return err
	}}); err != nil {
		t.Fatal(err)
	}
	if st := e.Controller().Stats(); st.ROFastCommits != 1 {
		t.Fatalf("ROFastCommits = %d, want 1 (detected read-only)", st.ROFastCommits)
	}
}

// TestDeclaredReadOnlyDemotesOnWrite: declaring ReadOnly is a
// performance hint, not a contract — a declared transaction that writes
// is demoted and restarted into the fully registered path, and its
// write commits durably.
func TestDeclaredReadOnlyDemotesOnWrite(t *testing.T) {
	e, db, _ := newTestEngine(t, Config{}, LogDisk)
	if err := e.Execute(Request{Deadline: time.Second, ReadOnly: true, Do: func(tx *Tx) error {
		v, err := tx.Read(4)
		if err != nil {
			return err
		}
		v[0]++
		return tx.Write(4, v)
	}}); err != nil {
		t.Fatal(err)
	}
	v, _ := db.Get(4)
	if v[0] != 5 {
		t.Fatalf("db value = %v, want the demoted write applied", v)
	}
	st := e.Controller().Stats()
	if st.ROFastCommits != 0 {
		t.Fatalf("ROFastCommits = %d, want 0 for a demoted writer", st.ROFastCommits)
	}
	if s := e.Outcome().Snapshot(); s.Committed != 1 {
		t.Fatalf("outcome = %+v", s)
	}
}

// TestReadOnlySnapshotSerializable is the serializability property
// test: concurrent transfers preserve a sum invariant, and every
// read-only snapshot must observe it. Declared readers take the snapshot
// fast path; undeclared readers register their reads, are detected as
// read-only at validation, and fall back to full validation whenever the
// snapshot cannot be certified. A torn snapshot (one account
// pre-transfer, the other post-transfer) would break the sum.
func TestReadOnlySnapshotSerializable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		readOnly bool
	}{
		{"fastpath", true},
		{"undeclared", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Several workers, so readers and transfers really interleave.
			e, db, _ := newTestEngine(t, Config{Workers: 4}, LogNone)
			const (
				accounts = 8
				perAcct  = 10
				writers  = 3
				readers  = 2
				iters    = 150 // snapshots per reader
			)
			for i := 0; i < accounts; i++ {
				db.Put(store.ObjectID(i), []byte{perAcct})
			}
			// Transfers run until the last reader is done, so every
			// snapshot races them.
			var writing, reading sync.WaitGroup
			var stop atomic.Bool
			var torn sync.Once
			var tornErr error
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					for i := 0; !stop.Load(); i++ {
						runtime.Gosched() // on one CPU, leave the readers their turn
						from := store.ObjectID((w + i) % accounts)
						to := store.ObjectID((w + i + 1 + i%3) % accounts)
						if from == to {
							continue
						}
						// Transfers may miss deadlines under contention;
						// only the invariant matters, not throughput.
						_ = e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
							fv, err := tx.Read(from)
							if err != nil {
								return err
							}
							tv, err := tx.Read(to)
							if err != nil {
								return err
							}
							if fv[0] == 0 {
								return nil
							}
							fv[0]--
							tv[0]++
							if err := tx.Write(from, fv); err != nil {
								return err
							}
							return tx.Write(to, tv)
						}})
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				reading.Add(1)
				go func() {
					defer reading.Done()
					for i := 0; i < iters; i++ {
						var sum int
						err := e.Execute(Request{Deadline: time.Second, ReadOnly: tc.readOnly, Do: func(tx *Tx) error {
							sum = 0
							for id := 0; id < accounts; id++ {
								v, err := tx.Read(store.ObjectID(id))
								if err != nil {
									return err
								}
								sum += int(v[0])
							}
							return nil
						}})
						if err == nil && sum != accounts*perAcct {
							torn.Do(func() {
								tornErr = fmt.Errorf("torn read-only snapshot: sum %d, want %d", sum, accounts*perAcct)
							})
							return
						}
					}
				}()
			}
			reading.Wait()
			stop.Store(true)
			writing.Wait()
			if tornErr != nil {
				t.Fatal(tornErr)
			}
			st := e.Controller().Stats()
			if tc.readOnly && st.ROFastCommits == 0 {
				t.Fatalf("fast path never certified under read-mostly load: %+v", st)
			}
			t.Logf("fast commits %d, fallbacks to full validation %d", st.ROFastCommits, st.ROFallbacks)
			// The read-latency histogram must have recorded every tx.Read.
			if st.ReadLatency.Count == 0 {
				t.Fatalf("read latency histogram empty: %+v", st.ReadLatency)
			}
		})
	}
}
