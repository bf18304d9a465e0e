package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/store"
	"repro/internal/txn"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	recs := []*Record{
		{Type: TypeWrite, TxnID: 7, ObjectID: 42, AfterImage: []byte("after")},
		{Type: TypeWrite, TxnID: 7, ObjectID: 43, AfterImage: nil},
		{Type: TypeCommit, TxnID: 7, SerialOrder: 3, CommitTS: 65536},
		{Type: TypeDelete, TxnID: 9, ObjectID: 44},
	}
	var buf bytes.Buffer
	for _, r := range recs {
		if err := Encode(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	b := buf.Bytes()
	for i, want := range recs {
		got, n, err := DecodeNext(b)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		b = b[n:]
		if got.Type != want.Type || got.TxnID != want.TxnID ||
			got.SerialOrder != want.SerialOrder || got.CommitTS != want.CommitTS ||
			got.ObjectID != want.ObjectID || !bytes.Equal(got.AfterImage, want.AfterImage) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, _, err := DecodeNext(b); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestPropertyEncodeDecode(t *testing.T) {
	f := func(txnID uint32, serial, ts uint64, obj uint32, img []byte) bool {
		want := &Record{Type: TypeWrite, TxnID: txn.ID(txnID), SerialOrder: serial,
			CommitTS: ts, ObjectID: store.ObjectID(obj), AfterImage: img}
		got, n, err := DecodeNext(AppendEncoded(nil, want))
		if err != nil || n != EncodedSize(want) {
			return false
		}
		return got.TxnID == want.TxnID && got.SerialOrder == want.SerialOrder &&
			got.CommitTS == want.CommitTS && got.ObjectID == want.ObjectID &&
			bytes.Equal(got.AfterImage, want.AfterImage)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	rec := &Record{Type: TypeWrite, TxnID: 1, ObjectID: 2, AfterImage: []byte("payload")}
	enc := AppendEncoded(nil, rec)
	// Flip one byte anywhere after the CRC field: must be detected.
	for pos := 4; pos < len(enc); pos++ {
		damaged := append([]byte(nil), enc...)
		damaged[pos] ^= 0xff
		_, _, err := DecodeNext(damaged)
		if err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	rec := &Record{Type: TypeWrite, TxnID: 1, ObjectID: 2, AfterImage: []byte("payload")}
	enc := AppendEncoded(nil, rec)
	for cut := 1; cut < len(enc); cut++ {
		_, _, err := DecodeNext(enc[:cut])
		if err != io.ErrUnexpectedEOF && err != ErrCorrupt {
			t.Fatalf("cut at %d: err = %v", cut, err)
		}
	}
}

func TestDecodeRejectsHugeImage(t *testing.T) {
	rec := &Record{Type: TypeWrite, TxnID: 1, AfterImage: []byte("x")}
	enc := AppendEncoded(nil, rec)
	// Forge an enormous length field.
	enc[4], enc[5], enc[6], enc[7] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeNext(enc); err != ErrCorrupt {
		t.Fatalf("DecodeNext err = %v, want ErrCorrupt", err)
	}
	// The group reader rejects the length before reading the image.
	if g, err := ReadGroup(bytes.NewReader(enc), nil); err != ErrCorrupt || len(g) != 0 {
		t.Fatalf("ReadGroup: %d bytes, err = %v, want ErrCorrupt", len(g), err)
	}
}

func TestRecordsForTransaction(t *testing.T) {
	tx := txn.New(5, txn.Firm, 0, txn.NoDeadline)
	tx.StageWrite(10, []byte("a"))
	tx.StageWrite(11, []byte("b"))
	tx.CommitTS = 99
	tx.SerialOrder = 4
	writes := WriteRecordsFor(tx)
	if len(writes) != 2 || writes[0].ObjectID != 10 || writes[1].ObjectID != 11 {
		t.Fatalf("writes = %v", writes)
	}
	c := CommitRecordFor(tx)
	if c.Type != TypeCommit || c.SerialOrder != 4 || c.CommitTS != 99 || c.TxnID != 5 {
		t.Fatalf("commit = %+v", c)
	}
}

func TestEncodedSize(t *testing.T) {
	r := &Record{Type: TypeWrite, AfterImage: make([]byte, 100)}
	if EncodedSize(r) != headerSize+100 {
		t.Fatalf("EncodedSize = %d", EncodedSize(r))
	}
	if len(AppendEncoded(nil, r)) != EncodedSize(r) {
		t.Fatal("AppendEncoded length disagrees with EncodedSize")
	}
}

// TestRetiredTypeCodesAreCorrupt pins the stored type codes: write 1,
// commit 2 and delete 5 decode, and the retired codes 3 and 4 (abort and
// heartbeat records, which no writer produces) fail the record decoder
// and the group readers as ErrCorrupt even under a valid checksum.
func TestRetiredTypeCodesAreCorrupt(t *testing.T) {
	for ty, code := range map[Type]byte{TypeWrite: 1, TypeCommit: 2, TypeDelete: 5} {
		if byte(ty) != code {
			t.Fatalf("%v has code %d, want %d", ty, byte(ty), code)
		}
		enc := AppendEncoded(nil, &Record{Type: ty, TxnID: 1})
		if _, _, err := DecodeNext(enc); err != nil {
			t.Fatalf("code %d: DecodeNext: %v", code, err)
		}
	}
	for _, code := range []Type{3, 4} {
		enc := AppendEncoded(nil, &Record{Type: code, TxnID: 1})
		if _, _, err := DecodeNext(enc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("code %d: DecodeNext err = %v, want ErrCorrupt", code, err)
		}
		if _, _, err := NextGroup(enc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("code %d: NextGroup err = %v, want ErrCorrupt", code, err)
		}
		if _, err := ReadGroup(bytes.NewReader(enc), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("code %d: ReadGroup err = %v, want ErrCorrupt", code, err)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, r := range []*Record{
		{Type: TypeWrite}, {Type: TypeCommit}, {Type: TypeDelete}, {Type: Type(9)},
	} {
		if r.String() == "" {
			t.Fatal("empty record string")
		}
	}
	for _, ty := range []Type{TypeWrite, TypeCommit, TypeDelete, Type(9)} {
		if ty.String() == "" {
			t.Fatal("empty type string")
		}
	}
}

// --- Group readers and the Replayer --------------------------------------------

func commitRec(id txn.ID, serial uint64) *Record {
	return &Record{Type: TypeCommit, TxnID: id, SerialOrder: serial, CommitTS: serial * 100}
}

func writeRec(id txn.ID, obj store.ObjectID) *Record {
	return &Record{Type: TypeWrite, TxnID: id, ObjectID: obj, AfterImage: []byte{byte(id)}}
}

// encodeGroup encodes recs back to back: one group's bytes when they are
// one transaction's writes closed by its commit.
func encodeGroup(recs ...*Record) []byte {
	var b []byte
	for _, rec := range recs {
		b = AppendEncoded(b, rec)
	}
	return b
}

// addGroup encodes recs as one group, checks it with NextGroup and feeds
// it to r, returning the first error.
func addGroup(r *Replayer, recs ...*Record) error {
	g := encodeGroup(recs...)
	n, _, err := NextGroup(g)
	if err == nil && n != len(g) {
		err = fmt.Errorf("NextGroup took %d of %d bytes", n, len(g))
	}
	if err != nil {
		return err
	}
	return r.Add(g)
}

// TestNextGroupReportsGroup: NextGroup takes exactly the first group of a
// run and reports its commit record; ReadGroup reads the same group off
// a stream and reuses its buffer for the next one.
func TestNextGroupReportsGroup(t *testing.T) {
	first := encodeGroup(writeRec(1, 10), writeRec(1, 11), commitRec(1, 1))
	second := encodeGroup(&Record{Type: TypeDelete, TxnID: 2, ObjectID: 10}, commitRec(2, 2))
	run := append(append([]byte(nil), first...), second...)
	n, commit, err := NextGroup(run)
	if err != nil || n != len(first) || commit.TxnID != 1 || commit.SerialOrder != 1 || commit.CommitTS != 100 {
		t.Fatalf("NextGroup: n %d (want %d), commit %+v, err %v", n, len(first), commit, err)
	}
	r := bytes.NewReader(run)
	g, err := ReadGroup(r, nil)
	if err != nil || !bytes.Equal(g, first) {
		t.Fatalf("ReadGroup: %d bytes, err %v", len(g), err)
	}
	if g, err = ReadGroup(r, g); err != nil || !bytes.Equal(g, second) {
		t.Fatalf("second ReadGroup: %d bytes, err %v", len(g), err)
	}
	if g, err = ReadGroup(r, g); err != io.EOF || len(g) != 0 {
		t.Fatalf("at the end: %d bytes, err %v, want io.EOF", len(g), err)
	}
}

// TestGroupReadersTellTheEndsApart: b ending at a record boundary inside
// a group, b ending mid-record, and damage are three different answers,
// and each reports the checked records before it.
func TestGroupReadersTellTheEndsApart(t *testing.T) {
	w := encodeGroup(writeRec(1, 10))
	whole := encodeGroup(writeRec(1, 10), writeRec(1, 11), commitRec(1, 1))
	damaged := append([]byte(nil), whole...)
	damaged[len(w)+10] ^= 0xff
	for _, tc := range []struct {
		name       string
		b          []byte
		next, read error // NextGroup's and ReadGroup's answers
		n          int
	}{
		{"empty", nil, io.EOF, io.EOF, 0},
		{"open group", whole[:len(w)], io.ErrUnexpectedEOF, io.EOF, len(w)},
		{"torn record", whole[:len(w)+5], io.ErrUnexpectedEOF, io.ErrUnexpectedEOF, len(w)},
		{"torn first record", whole[:5], io.ErrUnexpectedEOF, io.ErrUnexpectedEOF, 0},
		{"damage", damaged, ErrCorrupt, ErrCorrupt, len(w)},
		{"other transaction", encodeGroup(writeRec(1, 10), writeRec(2, 20), commitRec(2, 2)), ErrCorrupt, ErrCorrupt, len(w)},
		{"unknown type", encodeGroup(writeRec(1, 10), &Record{Type: Type(99), TxnID: 1}), ErrCorrupt, ErrCorrupt, len(w)},
	} {
		n, _, err := NextGroup(tc.b)
		if !errors.Is(err, tc.next) || n != tc.n {
			t.Fatalf("%s: NextGroup n %d err %v, want %d and %v", tc.name, n, err, tc.n, tc.next)
		}
		g, err := ReadGroup(bytes.NewReader(tc.b), nil)
		if !errors.Is(err, tc.read) || len(g) != tc.n {
			t.Fatalf("%s: ReadGroup %d bytes err %v, want %d and %v", tc.name, len(g), err, tc.n, tc.read)
		}
	}
}

// TestWalkGroupsAtEveryCut: for every prefix of a run of groups — with
// writes, a delete, a read-only commit and a commit carrying an image —
// WalkGroups reports whole exactly at the group ends, with the largest
// commit serial so far; a length field past the end is not whole.
func TestWalkGroupsAtEveryCut(t *testing.T) {
	var run []byte
	ends := map[int]uint64{0: 0} // group end offset -> max serial up to it
	for _, g := range [][]*Record{
		{writeRec(1, 10), writeRec(1, 11), commitRec(1, 3)},
		{{Type: TypeDelete, TxnID: 2, ObjectID: 10}, commitRec(2, 2)},
		{commitRec(3, 5)},
		{writeRec(4, 13), {Type: TypeCommit, TxnID: 4, SerialOrder: 4, AfterImage: []byte("image")}},
	} {
		run = append(run, encodeGroup(g...)...)
		ends[len(run)] = max(ends[len(run)-len(encodeGroup(g...))], g[len(g)-1].SerialOrder)
	}
	for i := 0; i <= len(run); i++ {
		serial, whole := WalkGroups(run[:i])
		want, end := ends[i]
		if whole != end || end && serial != want {
			t.Fatalf("prefix of %d bytes: WalkGroups = %d, %v; want whole %v at serial %d", i, serial, whole, end, want)
		}
	}
	huge := AppendEncoded(nil, commitRec(1, 1))
	huge[4] = 0xff // the image length now reaches past the end
	if _, whole := WalkGroups(huge); whole {
		t.Fatal("a record whose image runs past the end is whole")
	}
}

// TestReadGroupGrowsByDoubling: a large group is read with a buffer
// that doubles, so reading it into a nil buffer takes about
// log2(size/512) allocations (growth by 1.25× would take three times as
// many, and copy as many bytes again), and a second read into the
// returned buffer allocates nothing but its reader.
func TestReadGroupGrowsByDoubling(t *testing.T) {
	snap := make([]store.Record, 30_000)
	for i := range snap {
		snap[i] = store.Record{ID: store.ObjectID(i), Value: make([]byte, 40), WriteTS: 1}
	}
	file := writeCheckpoint(t, snap, []uint64{1, 1})
	var (
		g   []byte
		err error
	)
	fresh := testing.AllocsPerRun(1, func() { g, err = ReadGroup(bytes.NewReader(file), nil) })
	if err != nil || len(g) != len(file) {
		t.Fatalf("%d of %d bytes, err %v", len(g), len(file), err)
	}
	if want := bits.Len(uint(len(file)/512)) + 3; fresh > float64(want) {
		t.Fatalf("reading a %d-byte group allocates %.0f times, want at most %d", len(file), fresh, want)
	}
	if reuse := testing.AllocsPerRun(3, func() { g, _ = ReadGroup(bytes.NewReader(file), g) }); reuse > 1 {
		t.Fatalf("a read into the returned buffer allocates %.0f times", reuse)
	}
}

// TestReordererGroupsByTransaction: the layer benchmark's per-record
// shim groups the writes since the last commit with it.
func TestReordererGroupsByTransaction(t *testing.T) {
	r := NewReorderer(0)
	for _, rec := range []*Record{writeRec(1, 10), writeRec(1, 11)} {
		if gs, err := r.Add(rec); gs != nil || err != nil {
			t.Fatalf("write completed a group: %v %v", gs, err)
		}
	}
	gs, err := r.Add(commitRec(1, 1))
	if err != nil || len(gs) != 1 || len(gs[0].Writes) != 2 || gs[0].Writes[1].ObjectID != 11 || gs[0].SerialOrder() != 1 {
		t.Fatalf("groups %v err %v", gs, err)
	}
}

// TestReplayerAppliesWholeGroups: Add applies a checked group's writes
// and counts it; a group the log ends inside is never handed to the
// Replayer, and Replay counts it as discarded.
func TestReplayerAppliesWholeGroups(t *testing.T) {
	db := store.New()
	r := NewReplayer(db)
	if err := addGroup(r, writeRec(1, 10), writeRec(1, 11), commitRec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Applied != 1 || st.WritesApplied != 2 || st.LastSerial != 1 || st.MaxCommitTS != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if v, ok := db.Get(11); !ok || len(v) != 1 || v[0] != 1 {
		t.Fatalf("object 11 = %v %v", v, ok)
	}
	log := encodeGroup(writeRec(1, 10), commitRec(1, 1), writeRec(2, 20))
	replayed := store.New()
	st, err := Recover(bytes.NewReader(log), replayed)
	if err != nil || st.Discarded != 1 || st.Applied != 1 || st.Truncated { // txn 2 never committed
		t.Fatalf("stats = %+v, err %v", st, err)
	}
	if _, ok := replayed.Get(20); ok {
		t.Fatal("uncommitted write applied")
	}
}

// TestReplayDiscardsOpenGroup: a log that ends inside a group discards
// that one group, whatever its size, and a torn record inside it also
// reports the tail truncated.
func TestReplayDiscardsOpenGroup(t *testing.T) {
	open := encodeGroup(writeRec(1, 10), writeRec(1, 20), writeRec(1, 30))
	for _, tc := range []struct {
		log       []byte
		truncated bool
	}{{open, false}, {open[:len(open)-3], true}} {
		db := store.New()
		st, err := Recover(bytes.NewReader(tc.log), db)
		if err != nil || st.Discarded != 1 || st.Truncated != tc.truncated || db.Len() != 0 {
			t.Fatalf("%d bytes: stats %+v, err %v, %d objects", len(tc.log), st, err, db.Len())
		}
	}
}

// TestReplayerRestartChecksContiguity: after Restart a live stream must
// continue at the next serial; a gap is corruption, and its group is not
// applied.
func TestReplayerRestartChecksContiguity(t *testing.T) {
	db := store.New()
	r := NewReplayer(db)
	r.Restart(5, 700)
	if st := r.Stats(); st.LastSerial != 5 || st.MaxCommitTS != 700 || st.Discarded != 0 {
		t.Fatalf("after Restart: %+v", st)
	}
	if err := addGroup(r, writeRec(1, 10), commitRec(1, 7)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("serial 7 after 5: err = %v, want ErrCorrupt", err)
	}
	if err := addGroup(r, writeRec(2, 20), commitRec(2, 6)); err != nil {
		t.Fatalf("serial 6: %v", err)
	}
	if _, ok := db.Get(10); ok {
		t.Fatal("the out-of-order group was applied")
	}
	if _, ok := db.Get(20); !ok {
		t.Fatal("the next serial was not applied")
	}
	if st := r.Stats(); st.LastSerial != 6 || st.Applied != 1 {
		t.Fatalf("after serial 6: %+v", st)
	}
}

// TestReplayerRestartFiltersByWatermarks: after a state transfer at 5
// whose stripes are at watermarks 7 and 5, live groups skip the writes
// a stripe image already holds, and the filter ends at the top mark.
func TestReplayerRestartFiltersByWatermarks(t *testing.T) {
	var a, b store.ObjectID // one object in each of two stripes
	for a = 0; store.StripeOf(a, 2) != 0; a++ {
	}
	for b = 0; store.StripeOf(b, 2) != 1; b++ {
	}
	db := store.New()
	r := NewReplayer(db)
	r.Install(&Checkpoint{LastSerial: 7, Watermarks: NewStripeWatermarks([]uint64{7, 5})})
	r.Restart(5, 0)
	for serial := uint64(6); serial <= 8; serial++ {
		id := txn.ID(serial)
		recs := []*Record{writeRec(id, a)}
		if serial == 6 {
			recs = append(recs, writeRec(id, b))
		}
		if err := addGroup(r, append(recs, commitRec(id, serial))...); err != nil {
			t.Fatalf("serial %d: %v", serial, err)
		}
	}
	if st := r.Stats(); st.WritesSkipped != 2 || st.WritesApplied != 2 || st.LastSerial != 8 {
		t.Fatalf("stats %+v, want 2 skipped (a at 6 and 7), 2 applied", st)
	}
	if v, _ := db.Get(a); len(v) != 1 || v[0] != 8 {
		t.Fatalf("a = %v, want the write of serial 8", v)
	}
	if v, _ := db.Get(b); len(v) != 1 || v[0] != 6 {
		t.Fatalf("b = %v, want the write of serial 6", v)
	}
}

// --- Recovery ----------------------------------------------------------------

func TestRecoverAppliesCommittedOnly(t *testing.T) {
	log := encodeGroup(
		writeRec(1, 10),
		commitRec(1, 1),
		&Record{Type: TypeWrite, TxnID: 3, ObjectID: 30, AfterImage: []byte("three")},
		commitRec(3, 2),
		writeRec(2, 20), // no commit record: txn 2 aborted by failure
	)
	db := store.New()
	st, err := Recover(bytes.NewReader(log), db)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 2 || st.WritesApplied != 2 || st.Discarded != 1 || st.Truncated {
		t.Fatalf("stats = %+v", st)
	}
	if st.LastSerial != 2 {
		t.Fatalf("LastSerial = %d", st.LastSerial)
	}
	if _, ok := db.Get(20); ok {
		t.Fatal("uncommitted write applied")
	}
	v, ok := db.Get(30)
	if !ok || string(v) != "three" {
		t.Fatalf("committed write missing: %q %v", v, ok)
	}
}

func TestRecoverTruncatedTail(t *testing.T) {
	log := encodeGroup(writeRec(1, 10), commitRec(1, 1), writeRec(2, 20))
	log = log[:len(log)-3] // crash mid-record
	db := store.New()
	st, err := Recover(bytes.NewReader(log), db)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Applied != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecoverCorruptTailStopsCleanly(t *testing.T) {
	log := encodeGroup(writeRec(1, 10), commitRec(1, 1), writeRec(2, 20), commitRec(2, 2))
	// Damage the third record's checksum region.
	third := encodeGroup(writeRec(1, 10), commitRec(1, 1))
	log[len(third)+10] ^= 0xff
	db := store.New()
	st, err := Recover(bytes.NewReader(log), db)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Applied != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPropertyRecoveryMatchesDirectApply is the replay reference: for a
// log of contiguous groups (writes and deletes over a contended domain,
// commit timestamps not serial-monotone), perhaps ending inside one more
// group, the replayed store equals applying each committed group straight
// to a store in log order, and the counts match.
func TestPropertyRecoveryMatchesDirectApply(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		direct := store.New()
		var buf []byte
		const txns = 30
		writes := 0
		for i := 0; i < txns; i++ {
			id := txn.ID(i + 1)
			var ops []store.Op
			for w := rng.Intn(4); w > 0; w-- {
				rec := &Record{Type: TypeWrite, TxnID: id, ObjectID: store.ObjectID(rng.Intn(10)),
					AfterImage: []byte{byte(rng.Intn(256))}}
				if rng.Intn(8) == 0 {
					rec = &Record{Type: TypeDelete, TxnID: id, ObjectID: rec.ObjectID}
				}
				buf = AppendEncoded(buf, rec)
				ops = append(ops, store.Op{ID: rec.ObjectID, Value: rec.AfterImage, Delete: rec.Type == TypeDelete})
			}
			ts := uint64(1 + rng.Intn(txns*4))
			buf = AppendEncoded(buf, &Record{Type: TypeCommit, TxnID: id, SerialOrder: uint64(i + 1), CommitTS: ts})
			direct.ApplyGroup(ops, ts)
			writes += len(ops)
		}
		dangling := rng.Intn(3) == 0
		if dangling { // the crash caught one more group before its commit
			buf = AppendEncoded(buf, &Record{Type: TypeWrite, TxnID: txns + 1, ObjectID: 1, AfterImage: []byte("lost")})
		}
		recovered := store.New()
		st, err := Recover(bytes.NewReader(buf), recovered)
		if err != nil || st.Applied != txns || st.WritesApplied != writes || st.LastSerial != txns ||
			(st.Discarded == 1) != dangling || st.Truncated {
			t.Logf("stats %+v, err %v, dangling %v", st, err, dangling)
			return false
		}
		return recovered.Checksum() == direct.Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- Checkpoint ----------------------------------------------------------------

// TestCheckpointRoundTrip: a checkpoint replayed as a log of one group
// restores the store; the image is not a transaction, so a replay counts
// no Applied group.
func TestCheckpointRoundTrip(t *testing.T) {
	db, file := checkpointedStore(t)
	replayed := store.New()
	replayed.Put(1000, []byte("superseded"))
	st, err := Recover(bytes.NewReader(file), replayed)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSerial != 42 || st.MaxCommitTS != 123 || st.Applied != 0 || st.Truncated {
		t.Fatalf("replayed checkpoint: %+v, want serial 42, max commit ts 123, no group applied", st)
	}
	if replayed.Checksum() != db.Checksum() {
		t.Fatal("replayed checkpoint does not reproduce the store")
	}
}

// TestCheckpointIncomplete: a checkpoint cut before its commit record is
// an uncommitted group — a replay installs none of it.
func TestCheckpointIncomplete(t *testing.T) {
	file := writeCheckpoint(t, []store.Record{{ID: 1, Value: []byte("v")}, {ID: 2, Value: []byte("w")}}, []uint64{9, 9})
	for _, cut := range []int{len(file) - 5, len(file) / 2, 0} {
		db := store.New()
		db.Put(3, []byte("kept"))
		st, err := Recover(bytes.NewReader(file[:cut]), db)
		if err != nil {
			t.Fatal(err)
		}
		if st.Applied != 0 || st.LastSerial != 0 || db.Len() != 1 {
			t.Fatalf("cut at %d/%d: %+v, %d objects", cut, len(file), st, db.Len())
		}
	}
}

// TestReplayCheckpointResetsHistory: a log that reaches a checkpoint
// group replays as the history the image starts. Group 1 wrote object 1
// = "old" and object 2; the checkpoint holds only object 1 = "new" at
// write timestamp 200, so object 2 was deleted in the history it
// summarizes. The log must recover object 1 = "new", no object 2, and
// the image's timestamps — not the superseded ones.
func TestReplayCheckpointResetsHistory(t *testing.T) {
	log := encodeGroup(
		&Record{Type: TypeWrite, TxnID: 1, ObjectID: 1, AfterImage: []byte("old")},
		&Record{Type: TypeWrite, TxnID: 1, ObjectID: 2, AfterImage: []byte("gone")},
		&Record{Type: TypeCommit, TxnID: 1, SerialOrder: 1, CommitTS: 900},
	)
	log = append(log, writeCheckpoint(t, []store.Record{{ID: 1, Value: []byte("new"), WriteTS: 200}}, []uint64{2, 2})...)
	db := store.New()
	st, err := Recover(bytes.NewReader(log), db)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get(1); string(v) != "new" {
		t.Fatalf("object 1 = %q, want the checkpoint's \"new\"", v)
	}
	if _, ok := db.Get(2); ok {
		t.Fatal("object 2, deleted in the checkpoint's history, survived")
	}
	if st.MaxCommitTS != 200 || st.LastSerial != 2 {
		t.Fatalf("stats %+v, want MaxCommitTS 200 and LastSerial 2", st)
	}
}

// TestReplayerRejectsCheckpointAfterRestart: on a live stream a state
// transfer arrives only as a transfer, never inside the log; a
// checkpoint group there is corrupt and installs nothing.
func TestReplayerRejectsCheckpointAfterRestart(t *testing.T) {
	db := store.New()
	db.Put(5, []byte("live"))
	r := NewReplayer(db)
	r.Restart(3, 0)
	file := writeCheckpoint(t, []store.Record{{ID: 1, Value: []byte("img")}}, []uint64{4, 4})
	if _, _, err := NextGroup(file); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(file); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checkpoint group after Restart: err = %v, want ErrCorrupt", err)
	}
	if v, _ := db.Get(5); string(v) != "live" || db.Len() != 1 {
		t.Fatalf("store changed: object 5 = %q, %d objects", v, db.Len())
	}
}
