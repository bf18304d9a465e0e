package store

import (
	"fmt"
	"testing"
)

func TestStripeOfDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 1024} {
		for id := ObjectID(0); id < 5000; id += 13 {
			s := StripeOf(id, n)
			if s < 0 || s >= n {
				t.Fatalf("StripeOf(%d, %d) = %d out of range", id, n, s)
			}
			if s != StripeOf(id, n) {
				t.Fatalf("StripeOf(%d, %d) not deterministic", id, n)
			}
		}
	}
}

// TestStripeOfMatchesStore: the package-level function is the store's own
// placement — the property a checkpoint's watermark vector depends on
// when it is decoded by a process whose store object doesn't exist yet.
func TestStripeOfMatchesStore(t *testing.T) {
	db := New()
	n := db.NumStripes()
	for id := ObjectID(0); id < 2000; id += 7 {
		db.Put(id, []byte("x"))
		stripe := StripeOf(id, n)
		recs, _ := db.SnapshotStripe(stripe)
		found := false
		for _, r := range recs {
			if r.ID == id {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("object %d not in SnapshotStripe(%d)", id, stripe)
		}
	}
}

func TestStripeEpochAdvancesOnMutation(t *testing.T) {
	db := New()
	id := ObjectID(42)
	stripe := StripeOf(id, db.NumStripes())
	e0 := db.StripeEpoch(stripe)
	db.Put(id, []byte("a"))
	e1 := db.StripeEpoch(stripe)
	if e1 <= e0 {
		t.Fatalf("Put did not advance epoch: %d -> %d", e0, e1)
	}
	db.Apply(id, []byte("b"), 5)
	e2 := db.StripeEpoch(stripe)
	if e2 <= e1 {
		t.Fatalf("Apply did not advance epoch: %d -> %d", e1, e2)
	}
	db.ApplyDelete(id, 6)
	e3 := db.StripeEpoch(stripe)
	if e3 <= e2 {
		t.Fatalf("ApplyDelete did not advance epoch: %d -> %d", e2, e3)
	}
	// Reads leave the epoch alone.
	db.Get(id)
	_, _ = db.SnapshotStripe(stripe)
	if db.StripeEpoch(stripe) != e3 {
		t.Fatal("read advanced the epoch")
	}
	// A miss delete leaves the epoch alone.
	db.Delete(ObjectID(1 << 50))
	maxStripe := StripeOf(ObjectID(1<<50), db.NumStripes())
	if maxStripe == stripe && db.StripeEpoch(stripe) != e3 {
		t.Fatal("no-op delete advanced the epoch")
	}
}

func TestSnapshotStripesCoverSnapshot(t *testing.T) {
	db := New()
	for i := 0; i < 500; i++ {
		db.Apply(ObjectID(i*17), []byte(fmt.Sprintf("v%d", i)), uint64(i+1))
	}
	var union []Record
	for i := 0; i < db.NumStripes(); i++ {
		recs, _ := db.SnapshotStripe(i)
		for _, r := range recs {
			if StripeOf(r.ID, db.NumStripes()) != i {
				t.Fatalf("object %d reported by stripe %d, lives in %d",
					r.ID, i, StripeOf(r.ID, db.NumStripes()))
			}
		}
		union = append(union, recs...)
	}
	whole := db.Snapshot()
	if len(union) != len(whole) {
		t.Fatalf("stripe union has %d records, Snapshot has %d", len(union), len(whole))
	}
	restored := New()
	restored.LoadSnapshot(union)
	if restored.Checksum() != db.Checksum() {
		t.Fatal("union of stripe snapshots does not reproduce the store")
	}
}

func TestSnapshotStripeEpochConsistent(t *testing.T) {
	db := New()
	id := ObjectID(3)
	stripe := StripeOf(id, db.NumStripes())
	db.Put(id, []byte("a"))
	_, epoch := db.SnapshotStripe(stripe)
	if epoch != db.StripeEpoch(stripe) {
		t.Fatalf("snapshot epoch %d, live epoch %d", epoch, db.StripeEpoch(stripe))
	}
	db.Put(id, []byte("b"))
	if epoch == db.StripeEpoch(stripe) {
		t.Fatal("epoch did not move past the snapshot after a write")
	}
}
