package wal

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/store"
	"repro/internal/txn"
)

// randomLog builds an encoded log of randomized transactions: random
// write-set sizes over a small (contended) id domain, a mix of
// committed, aborted and dangling transactions, and — when interleave is
// set — write records shuffled across transaction boundaries. Every log
// writer appends whole groups, so no stored log holds such a stream;
// replay groups records by transaction id and must not depend on that.
// It returns the encoded bytes.
func randomLog(rng *rand.Rand, txns, idDomain int, interleave bool) []byte {
	type source struct{ recs []*Record }
	srcs := make([]*source, 0, txns)
	serial := uint64(0)
	for i := 0; i < txns; i++ {
		id := txn.ID(i + 1)
		s := &source{}
		nw := rng.Intn(5)
		for w := 0; w < nw; w++ {
			if rng.Intn(10) == 0 {
				s.recs = append(s.recs, &Record{Type: TypeDelete, TxnID: id,
					ObjectID: store.ObjectID(rng.Intn(idDomain))})
				continue
			}
			s.recs = append(s.recs, &Record{Type: TypeWrite, TxnID: id,
				ObjectID:   store.ObjectID(rng.Intn(idDomain)),
				AfterImage: []byte{byte(i), byte(w), byte(rng.Intn(256))}})
		}
		switch r := rng.Intn(100); {
		case r < 75: // committed; commit timestamps deliberately not serial-monotone
			serial++
			s.recs = append(s.recs, &Record{Type: TypeCommit, TxnID: id,
				SerialOrder: serial, CommitTS: uint64(1 + rng.Intn(txns*4))})
		case r < 85: // aborted
			s.recs = append(s.recs, &Record{Type: TypeAbort, TxnID: id})
		default: // dangling (no commit record — discarded by recovery)
		}
		srcs = append(srcs, s)
	}
	var ordered []*Record
	if interleave {
		remaining := 0
		for _, s := range srcs {
			if len(s.recs) > 0 {
				remaining++
			}
		}
		for remaining > 0 {
			i := rng.Intn(len(srcs))
			if len(srcs[i].recs) == 0 {
				continue
			}
			ordered = append(ordered, srcs[i].recs[0])
			srcs[i].recs = srcs[i].recs[1:]
			if len(srcs[i].recs) == 0 {
				remaining--
			}
		}
	} else {
		for _, s := range srcs {
			ordered = append(ordered, s.recs...)
		}
	}
	var buf bytes.Buffer
	for _, r := range ordered {
		if err := Encode(&buf, r); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// replayWith replays logBytes into db on a pool of workers workers,
// filtered by wm when it is non-nil: db already holds the state of a
// checkpoint at wm, so only Install's filter step is taken.
func replayWith(t *testing.T, logBytes []byte, db *store.Store, workers int, wm *StripeWatermarks) RecoverStats {
	t.Helper()
	rp := NewReplayer(db, workers)
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

// TestPropertyParallelRecoverEquivalence is the Replayer's worker-count
// property: for randomized logs (grouped or interleaved, contended or
// not, with and without a random watermark filter), a replay on 1–8
// workers leaves the same database and exactly the same statistics as a
// replay on one worker.
func TestPropertyParallelRecoverEquivalence(t *testing.T) {
	f := func(seed int64, w uint8, inter, filtered bool) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + int(w%8)
		txns, idDomain := 20+rng.Intn(40), 1+rng.Intn(12)
		logBytes := randomLog(rng, txns, idDomain, inter)
		var wm *StripeWatermarks
		if filtered {
			wm = randomMarks(rng, uint64(txns))
		}
		one, par := store.New(), store.New()
		oneStats := replayWith(t, logBytes, one, 1, wm)
		parStats := replayWith(t, logBytes, par, workers, wm)
		if one.Checksum() != par.Checksum() || oneStats != parStats {
			t.Logf("workers=%d domain=%d interleave=%v filtered=%v: one=%+v par=%+v",
				workers, idDomain, inter, filtered, oneStats, parStats)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelRecoverTruncatedTail pushes a torn log (ended mid-record)
// through a four-worker replay: everything before the damage applies,
// the pass ends cleanly with Truncated set, and the result matches a
// one-worker replay bit for bit.
func TestParallelRecoverTruncatedTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logBytes := randomLog(rng, 40, 8, true)
	logBytes = logBytes[:len(logBytes)-11] // tear the last record
	one, par := store.New(), store.New()
	oneStats := replayWith(t, logBytes, one, 1, nil)
	parStats := replayWith(t, logBytes, par, 4, nil)
	if !parStats.Truncated {
		t.Fatal("the torn tail was not reported")
	}
	if one.Checksum() != par.Checksum() || oneStats != parStats {
		t.Fatalf("torn-tail divergence: one=%+v par=%+v", oneStats, parStats)
	}
}

// TestParallelRecoverCorruptTail covers checksum damage (not just
// truncation) ending a four-worker replay cleanly.
func TestParallelRecoverCorruptTail(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logBytes := randomLog(rng, 30, 6, false)
	logBytes[len(logBytes)-20] ^= 0xff // corrupt inside the last record
	one, par := store.New(), store.New()
	oneStats := replayWith(t, logBytes, one, 1, nil)
	parStats := replayWith(t, logBytes, par, 4, nil)
	if !parStats.Truncated {
		t.Fatal("corrupt tail not reported as truncation")
	}
	if one.Checksum() != par.Checksum() || oneStats != parStats {
		t.Fatalf("corrupt-tail divergence: one=%+v par=%+v", oneStats, parStats)
	}
}

// TestPropertyParallelApplierMirrorEquivalence checks the mirror's mode:
// a live stream fed record by record after Restart, in validation order,
// leaves the database copy identical to applying each group directly,
// for any conflict structure and worker count, and every group comes
// back from Add in serial order.
func TestPropertyParallelApplierMirrorEquivalence(t *testing.T) {
	f := func(seed int64, w uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + int(w%8)
		idDomain := 1 + rng.Intn(10)
		groups := make([]*Group, 0, 64)
		for i := 0; i < 30+rng.Intn(30); i++ {
			id := txn.ID(i + 1)
			var writes []*Record
			for n := rng.Intn(4); n > 0; n-- {
				if rng.Intn(8) == 0 {
					writes = append(writes, &Record{Type: TypeDelete, TxnID: id,
						ObjectID: store.ObjectID(rng.Intn(idDomain))})
					continue
				}
				writes = append(writes, &Record{Type: TypeWrite, TxnID: id,
					ObjectID:   store.ObjectID(rng.Intn(idDomain)),
					AfterImage: []byte{byte(i), byte(n)}})
			}
			groups = append(groups, &Group{Writes: writes, Commit: &Record{
				Type: TypeCommit, TxnID: id,
				SerialOrder: uint64(i + 1), CommitTS: uint64(1 + rng.Intn(200)),
			}})
		}

		direct := store.New()
		for _, g := range groups {
			ops := make([]store.Op, 0, len(g.Writes))
			for _, w := range g.Writes {
				ops = append(ops, store.Op{ID: w.ObjectID, Value: w.AfterImage, Delete: w.Type == TypeDelete})
			}
			direct.ApplyGroup(ops, g.Commit.CommitTS)
		}

		live := store.New()
		r := NewReplayer(live, workers)
		r.Restart(0, 0)
		for _, g := range groups {
			for _, w := range g.Writes {
				if _, err := r.Add(w); err != nil {
					return false
				}
			}
			got, err := r.Add(g.Commit)
			if err != nil || got == nil || got.SerialOrder() != g.SerialOrder() {
				t.Logf("serial %d: got %v, err %v", g.SerialOrder(), got, err)
				return false
			}
		}
		r.Close()
		if st := r.Stats(); st.Applied != len(groups) || st.LastSerial != uint64(len(groups)) {
			t.Logf("stats %+v after %d groups", st, len(groups))
			return false
		}
		return direct.Checksum() == live.Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// addGroup feeds one single-write group to r.
func addGroup(t *testing.T, r *Replayer, serial uint64, obj store.ObjectID, img byte) {
	t.Helper()
	id := txn.ID(serial)
	addNone(t, r, &Record{Type: TypeWrite, TxnID: id, ObjectID: obj, AfterImage: []byte{img}})
	if g, err := r.Add(&Record{Type: TypeCommit, TxnID: id, SerialOrder: serial, CommitTS: serial}); err != nil || g == nil {
		t.Fatalf("serial %d: group %v err %v", serial, g, err)
	}
}

// TestParallelApplierWaitDrains checks that Wait is a full barrier: the
// store is a consistent serial-order prefix afterwards and the replayer
// remains usable for further groups.
func TestParallelApplierWaitDrains(t *testing.T) {
	db := store.New()
	r := NewReplayer(db, 4)
	defer r.Close()
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			addGroup(t, r, uint64(round*200+i+1), store.ObjectID(i%17), byte(round))
		}
		r.Wait()
		st := r.Stats()
		if want := (round + 1) * 200; st.Applied != want || st.LastSerial != uint64(want) {
			t.Fatalf("round %d: stats %+v, want %d groups", round, st, want)
		}
		for id := store.ObjectID(0); id < 17; id++ {
			if v, ok := db.Get(id); !ok || v[0] != byte(round) {
				t.Fatalf("round %d: object %d = %v after Wait", round, id, v)
			}
		}
	}
}

// TestParallelApplierBackpressure floods the replayer far past its
// inflight bound with maximally conflicting groups (every group writes
// object 0, forcing a fully serial chain) and checks nothing deadlocks
// or is lost.
func TestParallelApplierBackpressure(t *testing.T) {
	db := store.New()
	r := NewReplayer(db, 8)
	const n = 3 * maxApplierInflight
	for i := 1; i <= n; i++ {
		addGroup(t, r, uint64(i), 0, byte(i))
	}
	r.Close()
	if got := r.Stats().Applied; got != n {
		t.Fatalf("applied %d, want %d", got, n)
	}
	v, ok := db.Get(0)
	if !ok || v[0] != byte(n%256) {
		t.Fatalf("final value %v (ok=%v), want [%d]", v, ok, byte(n%256))
	}
}

// TestParallelRecoverWorkerDefaults: a worker count below one is raised
// to a pool of one, which still replays correctly.
func TestParallelRecoverWorkerDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logBytes := randomLog(rng, 25, 6, true)
	want := store.New()
	if _, err := Recover(bytes.NewReader(logBytes), want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 0, 1} {
		db := store.New()
		replayWith(t, logBytes, db, workers, nil)
		if db.Checksum() != want.Checksum() {
			t.Fatalf("workers=%d: checksum mismatch", workers)
		}
	}
}
