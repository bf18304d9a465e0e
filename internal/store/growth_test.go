package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// insertBytes reports the heap bytes allocated per insert while n
// objects with 32-byte values are put into an empty store.
func insertBytes(n int) float64 {
	v := make([]byte, 32)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New()
	for id := 0; id < n; id++ {
		s.Put(ObjectID(id), v)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestGrowthInsertBytesDoNotDependOnSize is the guard against a
// per-insert copy of the stripe index: the bytes an insert allocates
// are bounded by a constant, whatever the store's size. The constant
// covers the value copy, the version, the item and the amortised table
// doublings (each slot array is copied into one twice its size, so the
// copies sum to less than the final table); a copy of the stripe's index
// per insert would make the 64 k figure grow with the store.
func TestGrowthInsertBytesDoNotDependOnSize(t *testing.T) {
	const maxBytesPerInsert = 512
	small, large := insertBytes(2_000), insertBytes(64_000)
	t.Logf("bytes per insert: %.0f at 2 k objects, %.0f at 64 k", small, large)
	if small > maxBytesPerInsert || large > maxBytesPerInsert {
		t.Fatalf("an insert allocates %.0f B at 2 k objects and %.0f B at 64 k; want at most %d B at any size",
			small, large, maxBytesPerInsert)
	}
	if large > 2*small {
		t.Fatalf("bytes per insert grew from %.0f at 2 k objects to %.0f at 64 k", small, large)
	}
}

// TestPropertyLockFreeReadsAcrossTableGrowth drives one writer through
// enough inserts, deletions and re-creations that every stripe's table
// doubles several times, while lock-free readers check each
// observation:
//   - an id whose insert completed before the read began is found
//     (stable ids are never deleted);
//   - an id that was never written is never found and has no tombstone;
//   - (value, writeTS) never tear: every value encodes its id and the
//     commit timestamp it was written at.
//
// Once the writer quiesces, every accessor must match the reference
// model fed the same operations.
func TestPropertyLockFreeReadsAcrossTableGrowth(t *testing.T) {
	const (
		written = 8192 // ~128 ids per stripe: each table doubles from 8 to 256 slots
		never   = 1024 // ids past written: never touched
		readers = 3
	)
	enc := func(id ObjectID, ts uint64) []byte {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b, uint64(id))
		binary.LittleEndian.PutUint64(b[8:], ts)
		return b
	}
	churned := func(id ObjectID) bool { return id%4 == 3 }

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(written) // insert order
		s, ref := New(), newLockedStore()
		var inserted atomic.Int64 // order[:inserted] have completed their insert
		stop := make(chan struct{})
		var bad error
		var badMu sync.Mutex
		report := func(err error) {
			badMu.Lock()
			if bad == nil {
				bad = err
			}
			badMu.Unlock()
		}
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed ^ int64(r+1)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					n := int(inserted.Load())
					var id ObjectID
					switch rng.Intn(3) {
					case 0:
						id = ObjectID(written + rng.Intn(never))
					default:
						if n == 0 {
							continue
						}
						id = ObjectID(order[rng.Intn(n)])
					}
					v, _, wts, ok := s.ViewMeta(id)
					switch {
					case ok && (binary.LittleEndian.Uint64(v) != uint64(id) || binary.LittleEndian.Uint64(v[8:]) != wts):
						report(fmt.Errorf("seed %d: id %d read value %x with writeTS %d", seed, id, v, wts))
						return
					case id < written && !churned(id) && !ok:
						report(fmt.Errorf("seed %d: id %d was inserted before the read but is missing", seed, id))
						return
					case id >= written:
						_, _, del, exists := s.ReadInfo(id)
						if ok || exists || del != 0 || s.DeletedAt(id) != 0 {
							report(fmt.Errorf("seed %d: id %d was never written but reads as present or deleted", seed, id))
							return
						}
					}
				}
			}(r)
		}

		// The writer. Churned ids are deleted right after their insert —
		// transactionally if id%8 == 7, by a plain Delete if id%8 == 3 —
		// and are re-created 64 inserts later; a stale write between the
		// two must not bring them back. Every third insert also updates
		// the previously inserted id.
		var ts uint64
		tx := func(ops ...Op) {
			ts++
			for i := range ops {
				if !ops[i].Delete {
					ops[i].Value = enc(ops[i].ID, ts)
				}
			}
			s.ApplyGroup(ops, ts)
			ref.ApplyGroup(ops, ts)
		}
		for k, x := range order {
			id := ObjectID(x)
			tx(Op{ID: id})
			inserted.Store(int64(k + 1))
			if churned(id) {
				if id%8 == 7 {
					tx(Op{ID: id, Delete: true})
					s.Apply(id, enc(id, ts-1), ts-1) // older than the tombstone
					ref.Apply(id, enc(id, ts-1), ts-1)
				} else {
					s.Delete(id)
					ref.Delete(id)
				}
			}
			if k >= 64 {
				if j := ObjectID(order[k-64]); churned(j) {
					if j%8 == 7 {
						tx(Op{ID: j})
					} else {
						s.Put(j, enc(j, 0))
						ref.Put(j, enc(j, 0))
					}
				}
			}
			if k%3 == 2 {
				tx(Op{ID: ObjectID(order[k-1])})
			}
		}
		close(stop)
		wg.Wait()
		if bad != nil {
			t.Log(bad)
			return false
		}

		for i := range s.stripes {
			if n := len(s.stripes[i].tbl.Load().slots); n < minSlots<<3 {
				t.Logf("seed %d: stripe %d table has %d slots; want at least three doublings", seed, i, n)
				return false
			}
		}
		for id := ObjectID(0); id < written+never; id++ {
			rts, wts, del, ok := s.ReadInfo(id)
			rrts, rwts, rok := ref.Timestamps(id)
			if rts != rrts || wts != rwts || ok != rok || del != ref.DeletedAt(id) || s.DeletedAt(id) != del {
				t.Logf("seed %d: id %d: ReadInfo (%d,%d,%d,%v) DeletedAt %d, reference (%d,%d,%d,%v)",
					seed, id, rts, wts, del, ok, s.DeletedAt(id), rrts, rwts, ref.DeletedAt(id), rok)
				return false
			}
		}
		return s.Checksum() == ref.Checksum() && s.Len() == ref.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestTombstoneSurvivesTableGrowth walks one object through deletion,
// a doubling of its stripe's table, stale and newer writes, a plain
// Delete and Put, and a LoadSnapshot, checking every accessor after each
// step.
func TestTombstoneSurvivesTableGrowth(t *testing.T) {
	const id, gone = ObjectID(42), ObjectID(43)
	s := New()
	s.ApplyDelete(gone, 20)
	st := s.stripeFor(id)
	fill := func() { // inserts into id's stripe until its table has doubled
		start := len(st.tbl.Load().slots)
		for other := ObjectID(1000); len(st.tbl.Load().slots) < 2*start; other++ {
			if s.stripeFor(other) == st {
				s.Apply(other, []byte("filler"), 1)
			}
		}
	}
	type state struct {
		value          string
		exists         bool
		writeTS        uint64
		deletedTS      uint64
		deletionSerial uint64 // ViewVersion's serial for a missing object
	}
	steps := []struct {
		name string
		do   func()
		want state
	}{
		{"insert", func() { s.ApplyGroup([]Op{{ID: id, Value: []byte("a"), Serial: 3}}, 5) },
			state{value: "a", exists: true, writeTS: 5}},
		{"transactional delete", func() { s.ApplyGroup([]Op{{ID: id, Delete: true, Serial: 7}}, 10) },
			state{deletedTS: 10, deletionSerial: 7}},
		{"table doubles", fill,
			state{deletedTS: 10, deletionSerial: 7}},
		{"older replayed write", func() { s.ApplyGroup([]Op{{ID: id, Value: []byte("old"), Serial: 4}}, 8) },
			state{deletedTS: 10, deletionSerial: 7}},
		{"older deletion", func() { s.ApplyGroup([]Op{{ID: id, Delete: true, Serial: 5}}, 9) },
			state{deletedTS: 10, deletionSerial: 7}},
		{"re-create at a newer timestamp", func() { s.ApplyGroup([]Op{{ID: id, Value: []byte("b"), Serial: 9}}, 12) },
			state{value: "b", exists: true, writeTS: 12, deletedTS: 10}},
		{"table doubles again", fill,
			state{value: "b", exists: true, writeTS: 12, deletedTS: 10}},
		{"plain delete", func() {
			if !s.Delete(id) {
				t.Fatal("Delete of a live object reported false")
			}
		}, state{deletedTS: 10, deletionSerial: 7}},
		{"put", func() { s.Put(id, []byte("c")) },
			state{value: "c", exists: true, deletedTS: 10}},
		{"write older than the tombstone after put", func() { s.Apply(id, []byte("stale"), 9) },
			state{value: "c", exists: true, deletedTS: 10}},
		{"load snapshot", func() {
			s.LoadSnapshot(s.Snapshot())
			if s.DeletedAt(gone) != 0 {
				t.Fatal("LoadSnapshot kept the tombstone of an object it does not hold")
			}
		},
			state{value: "c", exists: true}},
		{"old write after the tombstone is cleared", func() { s.Apply(id, []byte("d"), 2) },
			state{value: "d", exists: true, writeTS: 2}},
	}
	for _, step := range steps {
		step.do()
		v, ok := s.Get(id)
		_, wts, del, exists := s.ReadInfo(id)
		_, _, serial, vok := s.ViewVersion(id)
		got := state{value: string(v), exists: ok, writeTS: wts, deletedTS: del}
		if !vok {
			got.deletionSerial = serial
		}
		if got != step.want || exists != ok || vok != ok || s.DeletedAt(id) != del {
			t.Fatalf("after %s: got %+v (ReadInfo exists %v, ViewVersion ok %v, DeletedAt %d), want %+v",
				step.name, got, exists, vok, s.DeletedAt(id), step.want)
		}
	}
}
