package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/store"
)

// writeCheckpoint builds a complete checkpoint from a snapshot and a
// watermark vector, the way the fuzzy checkpointer does.
func writeCheckpoint(t testing.TB, snap []store.Record, marks []uint64) []byte {
	t.Helper()
	buf := bytes.NewBuffer(AppendCheckpointRecords(nil, snap))
	if err := WriteCheckpointTrailer(buf, marks); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointedStore builds a 100-object store with one later update
// (write timestamp 123) and its checkpoint, watermarks 40..42.
func checkpointedStore(t testing.TB) (*store.Store, []byte) {
	t.Helper()
	db := store.New()
	for i := 0; i < 100; i++ {
		db.Put(store.ObjectID(i), []byte{byte(i), byte(i >> 1)})
	}
	db.Apply(7, []byte("updated"), 123)
	marks := make([]uint64, db.NumStripes())
	for i := range marks {
		marks[i] = uint64(40 + i%3)
	}
	return db, writeCheckpoint(t, db.Snapshot(), marks)
}

// watermarkRecord encodes a checkpoint's closing commit record with an
// arbitrary serial and watermark vector.
func watermarkRecord(serial uint64, vec []byte) []byte {
	return AppendEncoded(nil, &Record{Type: TypeCommit, TxnID: checkpointTxnID, SerialOrder: serial, AfterImage: vec})
}

func TestDecodeCheckpointRoundTrip(t *testing.T) {
	snap := []store.Record{
		{ID: 1, Value: []byte("one"), WriteTS: 11},
		{ID: 7, Value: []byte("seven"), WriteTS: 3},
		{ID: 1 << 40, Value: []byte(""), WriteTS: 99},
	}
	marks := []uint64{5, 9, 2, 9, 7, 5, 2, 8}
	file := writeCheckpoint(t, snap, marks)
	ck, n, err := DecodeCheckpoint(file)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(file) {
		t.Fatalf("consumed %d of %d bytes", n, len(file))
	}
	if ck.LastSerial != 9 {
		t.Fatalf("LastSerial = %d, want max watermark 9", ck.LastSerial)
	}
	if ck.Watermarks == nil || ck.Watermarks.Stripes() != len(marks) {
		t.Fatalf("watermarks = %+v", ck.Watermarks)
	}
	for i, m := range marks {
		if ck.Watermarks.Mark(i) != m {
			t.Fatalf("mark[%d] = %d, want %d", i, ck.Watermarks.Mark(i), m)
		}
	}
	if got, want := ck.Watermarks.Min(), uint64(2); got != want {
		t.Fatalf("Min = %d, want %d", got, want)
	}
	if len(ck.Snapshot) != len(snap) {
		t.Fatalf("snapshot: %d records, want %d", len(ck.Snapshot), len(snap))
	}
	for i, rec := range ck.Snapshot {
		want := snap[i]
		if rec.ID != want.ID || rec.WriteTS != want.WriteTS || !bytes.Equal(rec.Value, want.Value) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
	}
}

// TestCheckpointV2RestoresStore: a decoded checkpoint, installed through
// a Replayer, reproduces the store it was taken from.
func TestCheckpointV2RestoresStore(t *testing.T) {
	db, file := checkpointedStore(t)
	ck, _, err := DecodeCheckpoint(file)
	if err != nil {
		t.Fatal(err)
	}
	installed := store.New()
	NewReplayer(installed).Install(ck)
	if installed.Checksum() != db.Checksum() {
		t.Fatal("installed checkpoint does not reproduce the store")
	}
}

// TestDecodeCheckpointRejectsOtherTransaction: a checkpoint is one
// group of the reserved checkpoint transaction. An ordinary group, a
// checkpoint record followed by another transaction's, and a delete
// inside the checkpoint group are all corrupt.
func TestDecodeCheckpointRejectsOtherTransaction(t *testing.T) {
	ordinary := append(AppendEncoded(nil, &Record{Type: TypeWrite, TxnID: 3, ObjectID: 1, AfterImage: []byte("v")}),
		AppendEncoded(nil, &Record{Type: TypeCommit, TxnID: 3, SerialOrder: 1})...)
	mixed := append(AppendCheckpointRecords(nil, []store.Record{{ID: 1, Value: []byte("v")}}), ordinary...)
	withDelete := append(AppendEncoded(nil, &Record{Type: TypeDelete, TxnID: checkpointTxnID, ObjectID: 1}),
		watermarkRecord(4, binary.LittleEndian.AppendUint64(nil, 4))...)
	for name, b := range map[string][]byte{"ordinary": ordinary, "mixed": mixed, "delete": withDelete} {
		if _, _, err := DecodeCheckpoint(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestDecodeCheckpointEveryTruncationFails(t *testing.T) {
	snap := []store.Record{{ID: 4, Value: []byte("x"), WriteTS: 1}, {ID: 5, Value: []byte("y"), WriteTS: 2}}
	full := writeCheckpoint(t, snap, []uint64{3, 3, 3, 3})
	if _, _, err := DecodeCheckpoint(full); err != nil {
		t.Fatalf("full file must decode: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		_, _, err := DecodeCheckpoint(full[:cut])
		if !errors.Is(err, ErrIncompleteCheckpoint) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrIncompleteCheckpoint", cut, len(full), err)
		}
	}
}

// TestDecodeCheckpointHeaderCorruption: the closing commit record holds
// what a header would (stripe count, serial, marks), and a write record
// holds an object; damage to either fails its record CRC.
func TestDecodeCheckpointHeaderCorruption(t *testing.T) {
	full := writeCheckpoint(t, []store.Record{{ID: 1, Value: []byte("a")}}, []uint64{1, 1})
	for _, at := range []int{len(full) - 6, headerSize} {
		bad := append([]byte(nil), full...)
		bad[at] ^= 0x01
		if _, _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorrupt", at, err)
		}
	}
}

func TestDecodeCheckpointRejectsBadStripeCounts(t *testing.T) {
	for _, stripes := range []int{0, 3, 6, 1 << 21} {
		vec := make([]byte, 8*stripes)
		if _, _, err := DecodeCheckpoint(watermarkRecord(0, vec)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stripes=%d: err = %v, want ErrCorrupt", stripes, err)
		}
	}
	// A vector that is not a whole number of marks.
	if _, _, err := DecodeCheckpoint(watermarkRecord(0, make([]byte, 12))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("12-byte vector: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeCheckpointRejectsWatermarkMismatch(t *testing.T) {
	// The commit record says serial 5 but the watermark vector maxes at
	// 7: one of the two is lying, so the checkpoint must be rejected.
	vec := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 7), 4)
	if _, _, err := DecodeCheckpoint(watermarkRecord(5, vec)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestDecodeCheckpointAllocsDoNotScale: decoding parses the image in
// place, so its allocations are a few fixed objects (the checkpoint, its
// snapshot slice and its watermark vector) at any image size, not a
// record and an after image per object.
func TestDecodeCheckpointAllocsDoNotScale(t *testing.T) {
	const maxAllocs = 10
	for _, objects := range []int{2_000, 64_000} {
		snap := make([]store.Record, objects)
		for i := range snap {
			snap[i] = store.Record{ID: store.ObjectID(i), Value: []byte("entry value"), WriteTS: uint64(i + 1)}
		}
		file := writeCheckpoint(t, snap, []uint64{9, 9, 9, 9})
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := DecodeCheckpoint(file); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d objects: %.0f allocs per decode", objects, allocs)
		if allocs > maxAllocs {
			t.Fatalf("decoding %d objects allocates %.0f times; want at most %d at any size", objects, allocs, maxAllocs)
		}
	}
}

func TestStripeWatermarksFor(t *testing.T) {
	marks := make([]uint64, 16)
	for i := range marks {
		marks[i] = uint64(100 + i)
	}
	wm := NewStripeWatermarks(marks)
	for id := store.ObjectID(0); id < 1000; id += 37 {
		want := marks[store.StripeOf(id, 16)]
		if got := wm.For(id); got != want {
			t.Fatalf("For(%d) = %d, want %d", id, got, want)
		}
	}
	if wm.Min() != 100 || wm.Max() != 115 {
		t.Fatalf("Min/Max = %d/%d", wm.Min(), wm.Max())
	}
}
