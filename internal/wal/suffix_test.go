package wal

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

// randomLogUniqueTS is randomLog with one difference: commit timestamps
// are a random permutation, so no two transactions share one — the real
// engine's serialization timestamps are unique per transaction. Suffix
// replay reorders groups across the watermark split, which commutes
// under last-writer-wins only when conflicting groups have distinct
// timestamps; randomLog's deliberate collisions would test an ordering
// no engine-written log contains.
func randomLogUniqueTS(rng *rand.Rand, txns, idDomain int) []byte {
	logBytes := randomLog(rng, txns, idDomain)
	perm := rng.Perm(txns * 8)
	var out []byte
	r := bytes.NewReader(logBytes)
	for r.Len() > 0 {
		rec, err := Decode(r)
		if err != nil {
			panic(err)
		}
		if rec.Type == TypeCommit {
			rec.CommitTS = uint64(1 + perm[rec.SerialOrder])
		}
		out = AppendEncoded(out, rec)
	}
	return out
}

// replayPrefix applies to db exactly the committed writes a fuzzy
// checkpoint is guaranteed to contain: those whose group serial is at or
// below the watermark of the object's stripe. It mirrors the Replayer's
// apply semantics (the open group applies at its commit, last-writer-wins
// timestamps, tombstones) with the filter inverted.
func replayPrefix(t *testing.T, logBytes []byte, db *store.Store, wm *StripeWatermarks) {
	t.Helper()
	var open []*Record
	r := bytes.NewReader(logBytes)
	for r.Len() > 0 {
		rec, err := Decode(r)
		if err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case TypeWrite, TypeDelete:
			open = append(open, rec)
		case TypeCommit:
			for _, w := range open {
				if rec.SerialOrder > wm.For(w.ObjectID) {
					continue
				}
				if w.Type == TypeDelete {
					db.ApplyDelete(w.ObjectID, rec.CommitTS)
					continue
				}
				if _, wts, ok := db.Timestamps(w.ObjectID); ok && wts > rec.CommitTS {
					continue
				}
				db.Apply(w.ObjectID, w.AfterImage, rec.CommitTS)
			}
			open = nil
		}
	}
}

// TestPropertySuffixReplayEquivalence is the replay half of the fuzzy
// checkpoint contract: for any log and any per-stripe watermark vector,
// (state guaranteed by the checkpoint at those watermarks) + (suffix
// replay filtered by them) equals a full replay.
func TestPropertySuffixReplayEquivalence(t *testing.T) {
	totalSkipped := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logBytes := randomLogUniqueTS(rng, 20+rng.Intn(40), 1+rng.Intn(12))

		full := store.New()
		fullStats := replayWith(t, logBytes, full, nil)
		wm := randomMarks(rng, fullStats.LastSerial+1)

		snap := store.New()
		replayPrefix(t, logBytes, snap, wm)
		st := replayWith(t, logBytes, snap, wm)
		totalSkipped += st.WritesSkipped
		if st.LastSerial != fullStats.LastSerial || st.MaxCommitTS != fullStats.MaxCommitTS {
			t.Fatalf("suffix stats %+v, full %+v", st, fullStats)
		}
		if snap.Checksum() != full.Checksum() {
			t.Logf("seed=%d", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if totalSkipped == 0 {
		t.Fatal("watermark filter never engaged across all trials")
	}
}

func TestSuffixReplayNilWatermarksIsFullReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logBytes := randomLog(rng, 30, 8)
	a, b := store.New(), store.New()
	sa, err := Recover(bytes.NewReader(logBytes), a)
	if err != nil {
		t.Fatal(err)
	}
	sb := replayWith(t, logBytes, b, nil)
	if a.Checksum() != b.Checksum() || sa != sb {
		t.Fatalf("nil-watermark suffix differs: %+v vs %+v", sa, sb)
	}
	if sb.WritesSkipped != 0 {
		t.Fatalf("WritesSkipped = %d without a filter", sb.WritesSkipped)
	}
}

// TestSuffixReplayMaxWatermarkSkipsEverything: with every mark at the
// last serial the checkpoint covers the whole log; replay must change
// nothing and apply nothing.
func TestSuffixReplayMaxWatermarkSkipsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logBytes := randomLog(rng, 30, 8)
	full := store.New()
	fullStats, err := Recover(bytes.NewReader(logBytes), full)
	if err != nil {
		t.Fatal(err)
	}
	marks := make([]uint64, 4)
	for i := range marks {
		marks[i] = fullStats.LastSerial
	}
	before := full.Checksum()
	st := replayWith(t, logBytes, full, NewStripeWatermarks(marks))
	if st.WritesApplied != 0 {
		t.Fatalf("WritesApplied = %d, want 0", st.WritesApplied)
	}
	if st.LastSerial != fullStats.LastSerial {
		t.Fatalf("LastSerial = %d, want %d (commits still advance it)", st.LastSerial, fullStats.LastSerial)
	}
	if full.Checksum() != before {
		t.Fatal("fully-covered replay mutated the store")
	}
}
