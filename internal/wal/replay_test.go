package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
)

// randomLog builds an encoded log of randomized transactions: random
// write-set sizes over a small (contended) id domain, and commit
// timestamps that are deliberately not serial-monotone. Every group is
// contiguous and committed, as every log writer appends them; with
// probability one in four the log ends inside one more group, as a crash
// leaves it. It returns the encoded bytes.
func randomLog(rng *rand.Rand, txns, idDomain int) []byte {
	var buf []byte
	for i := 0; i < txns; i++ {
		id := txn.ID(i + 1)
		for w := rng.Intn(5); w > 0; w-- {
			if rng.Intn(10) == 0 {
				buf = AppendEncoded(buf, &Record{Type: TypeDelete, TxnID: id,
					ObjectID: store.ObjectID(rng.Intn(idDomain))})
				continue
			}
			buf = AppendEncoded(buf, &Record{Type: TypeWrite, TxnID: id,
				ObjectID:   store.ObjectID(rng.Intn(idDomain)),
				AfterImage: []byte{byte(i), byte(w), byte(rng.Intn(256))}})
		}
		buf = AppendEncoded(buf, &Record{Type: TypeCommit, TxnID: id,
			SerialOrder: uint64(i + 1), CommitTS: uint64(1 + rng.Intn(txns*4))})
	}
	if rng.Intn(4) == 0 {
		buf = AppendEncoded(buf, &Record{Type: TypeWrite, TxnID: txn.ID(txns + 1),
			ObjectID: store.ObjectID(rng.Intn(idDomain)), AfterImage: []byte("dangling")})
	}
	return buf
}

// replayWith replays logBytes into db, filtered by wm when it is
// non-nil: db already holds the state of a checkpoint at wm, so only
// Install's filter step is taken.
func replayWith(t *testing.T, logBytes []byte, db *store.Store, wm *StripeWatermarks) RecoverStats {
	t.Helper()
	rp := NewReplayer(db)
	if wm != nil {
		rp.setFilter(wm)
	}
	st, err := Replay(bytes.NewReader(logBytes), rp)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// randomMarks draws an 8-stripe watermark vector with marks in [0, top].
func randomMarks(rng *rand.Rand, top uint64) *StripeWatermarks {
	marks := make([]uint64, 8)
	for i := range marks {
		marks[i] = uint64(rng.Int63n(int64(top) + 1))
	}
	return NewStripeWatermarks(marks)
}

// wholeGroups returns the prefix of logBytes that ends at the last
// commit record before the end or the first damage: the groups a replay
// of the log applies.
func wholeGroups(t *testing.T, logBytes []byte) []byte {
	t.Helper()
	end := 0
	for off := 0; ; {
		rec, n, err := DecodeNext(logBytes[off:])
		if err != nil {
			return logBytes[:end]
		}
		if off += n; rec.Type == TypeCommit {
			end = off
		}
	}
}

// TestParallelRecoverTruncatedTail pushes a torn log (ended mid-record)
// through a replay: the pass ends cleanly with Truncated set, and the
// store and counts equal a replay of the whole groups before the tear.
func TestParallelRecoverTruncatedTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logBytes := randomLog(rng, 40, 8)
	logBytes = logBytes[:len(logBytes)-11] // tear the last record
	torn, whole := store.New(), store.New()
	tornStats := replayWith(t, logBytes, torn, nil)
	wholeStats := replayWith(t, wholeGroups(t, logBytes), whole, nil)
	if !tornStats.Truncated {
		t.Fatal("the torn tail was not reported")
	}
	if torn.Checksum() != whole.Checksum() || tornStats.LastSerial != wholeStats.LastSerial ||
		tornStats.Applied != wholeStats.Applied || tornStats.Applied < 39 {
		t.Fatalf("torn tail: %+v, whole groups: %+v", tornStats, wholeStats)
	}
}

// TestParallelRecoverCorruptTail covers checksum damage (not just
// truncation) ending a replay cleanly, with the groups before it applied.
func TestParallelRecoverCorruptTail(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logBytes := randomLog(rng, 30, 6)
	logBytes[len(logBytes)-20] ^= 0xff // corrupt inside the last record
	damaged, whole := store.New(), store.New()
	damagedStats := replayWith(t, logBytes, damaged, nil)
	wholeStats := replayWith(t, wholeGroups(t, logBytes), whole, nil)
	if !damagedStats.Truncated {
		t.Fatal("corrupt tail not reported as truncation")
	}
	if damaged.Checksum() != whole.Checksum() || damagedStats.LastSerial != wholeStats.LastSerial ||
		damagedStats.Applied != wholeStats.Applied {
		t.Fatalf("corrupt tail: %+v, whole groups: %+v", damagedStats, wholeStats)
	}
}

// TestReplayerRejectsInterleavedGroup: every writer appends a group as
// one contiguous run, so a record of a second transaction inside an open
// group is corruption. Add applies nothing then, and a replay of the
// same bytes stops there with the groups before it applied.
func TestReplayerRejectsInterleavedGroup(t *testing.T) {
	recs := []*Record{
		writeRec(1, 10), commitRec(1, 1),
		writeRec(2, 20),
		writeRec(3, 30), // inside transaction 2's open group
		commitRec(3, 2), commitRec(2, 3),
	}
	db := store.New()
	r := NewReplayer(db)
	var err error
	for _, rec := range recs {
		if _, err = r.Add(rec); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interleaved record: err = %v, want ErrCorrupt", err)
	}
	if st := r.Stats(); st.Applied != 1 || st.LastSerial != 1 || db.Len() != 1 {
		t.Fatalf("after the interleaved record: %+v, %d objects", st, db.Len())
	}

	replayed := store.New()
	st, err := Recover(bytes.NewReader(encodeAll(t, recs)), replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Applied != 1 || st.LastSerial != 1 || st.Discarded != 1 {
		t.Fatalf("replay: %+v, want Truncated after serial 1 and the open group discarded", st)
	}
	if _, ok := replayed.Get(10); !ok || replayed.Len() != 1 {
		t.Fatalf("replay applied %d objects, want only the prefix's object 10", replayed.Len())
	}
}

// TestReplayerAppliesBeforeAddReturns: the apply runs on the caller's
// goroutine, so after each Add that returns a group the store holds that
// group and Stats reports its serial: the store is a serial-order prefix
// after every Add, with no barrier to wait on.
func TestReplayerAppliesBeforeAddReturns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := store.New()
	r := NewReplayer(db)
	r.Restart(0, 0)
	for serial := uint64(1); serial <= 300; serial++ {
		id := txn.ID(serial)
		want := map[store.ObjectID][]byte{}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			obj := store.ObjectID(rng.Intn(16))
			if rng.Intn(6) == 0 {
				addNone(t, r, &Record{Type: TypeDelete, TxnID: id, ObjectID: obj})
				want[obj] = nil
				continue
			}
			img := []byte{byte(serial), byte(n)}
			addNone(t, r, &Record{Type: TypeWrite, TxnID: id, ObjectID: obj, AfterImage: img})
			want[obj] = img
		}
		g, err := r.Add(commitRec(id, serial))
		if err != nil || g == nil {
			t.Fatalf("serial %d: group %v err %v", serial, g, err)
		}
		if st := r.Stats(); st.LastSerial != serial || st.Applied != int(serial) {
			t.Fatalf("after Add of serial %d: %+v", serial, st)
		}
		for obj, img := range want {
			v, ok := db.Get(obj)
			if ok != (img != nil) || !bytes.Equal(v, img) {
				t.Fatalf("after Add of serial %d: object %d = %v (present %v), want %v", serial, obj, v, ok, img)
			}
		}
	}
}
