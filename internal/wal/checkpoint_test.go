package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/store"
)

// writeV2 builds a complete v2 checkpoint file from a snapshot and a
// watermark vector, the way the fuzzy checkpointer does.
func writeV2(t testing.TB, snap []store.Record, marks []uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpointHeader(&buf, len(marks)); err != nil {
		t.Fatal(err)
	}
	var body []byte
	for _, rec := range snap {
		body = AppendCheckpointRecord(body, rec)
	}
	buf.Write(body)
	if err := WriteCheckpointTrailer(&buf, marks); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointV2RoundTrip(t *testing.T) {
	snap := []store.Record{
		{ID: 1, Value: []byte("one"), WriteTS: 11},
		{ID: 7, Value: []byte("seven"), WriteTS: 3},
		{ID: 1 << 40, Value: []byte(""), WriteTS: 99},
	}
	marks := []uint64{5, 9, 2, 9, 7, 5, 2, 8}
	ck, err := DecodeCheckpoint(bytes.NewReader(writeV2(t, snap, marks)))
	if err != nil {
		t.Fatal(err)
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

func TestCheckpointV2RestoresStore(t *testing.T) {
	db := store.New()
	for i := 0; i < 100; i++ {
		db.Put(store.ObjectID(i), []byte{byte(i), byte(i >> 1)})
	}
	marks := make([]uint64, db.NumStripes())
	for i := range marks {
		marks[i] = uint64(40 + i%3)
	}
	ck, err := DecodeCheckpoint(bytes.NewReader(writeV2(t, db.Snapshot(), marks)))
	if err != nil {
		t.Fatal(err)
	}
	restored := store.New()
	restored.LoadSnapshot(ck.Snapshot)
	if restored.Checksum() != db.Checksum() {
		t.Fatal("v2 checkpoint does not reproduce the store")
	}
}

// TestDecodeCheckpointRejectsV1Stream: a bare record stream (the image
// WriteCheckpoint puts into a mirror's log) is not a checkpoint.
func TestDecodeCheckpointRejectsV1Stream(t *testing.T) {
	db := store.New()
	for i := 0; i < 20; i++ {
		db.Put(store.ObjectID(i*3), []byte("v1"))
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, db.Snapshot(), 77); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeCheckpointEveryTruncationFails(t *testing.T) {
	snap := []store.Record{{ID: 4, Value: []byte("x"), WriteTS: 1}, {ID: 5, Value: []byte("y"), WriteTS: 2}}
	full := writeV2(t, snap, []uint64{3, 3, 3, 3})
	if _, err := DecodeCheckpoint(bytes.NewReader(full)); err != nil {
		t.Fatalf("full file must decode: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		_, err := DecodeCheckpoint(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
		// A cut can land so a record frame looks damaged (ErrCorrupt via
		// the record CRC) but never so the file silently decodes.
		if !errors.Is(err, ErrIncompleteCheckpoint) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
}

func TestDecodeCheckpointHeaderCorruption(t *testing.T) {
	full := writeV2(t, []store.Record{{ID: 1, Value: []byte("a")}}, []uint64{1, 1})
	// Flip the stripe count without fixing the header CRC.
	bad := append([]byte(nil), full...)
	bad[8] ^= 0xff
	if _, err := DecodeCheckpoint(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header corruption: err = %v, want ErrCorrupt", err)
	}
	// Flip a watermark byte without fixing the trailer CRC.
	bad = append([]byte(nil), full...)
	bad[len(bad)-6] ^= 0x01
	if _, err := DecodeCheckpoint(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailer corruption: err = %v, want ErrCorrupt", err)
	}
}

// badHeader builds a v2 header with a valid CRC but an arbitrary stripe
// count, to prove the count is validated beyond the checksum.
func badHeader(stripes uint32) []byte {
	buf := make([]byte, checkpointHeaderSize)
	copy(buf, checkpointMagic)
	binary.LittleEndian.PutUint32(buf[8:], stripes)
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[:12]))
	return buf
}

func TestDecodeCheckpointRejectsBadStripeCounts(t *testing.T) {
	for _, stripes := range []uint32{0, 3, 6, 1 << 21} {
		if _, err := DecodeCheckpoint(bytes.NewReader(badHeader(stripes))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("stripes=%d: err = %v, want ErrCorrupt", stripes, err)
		}
	}
}

func TestDecodeCheckpointRejectsWatermarkMismatch(t *testing.T) {
	// Commit marker says serial 5 but the watermark vector maxes at 7:
	// one of the two is lying, so the file must be rejected.
	var buf bytes.Buffer
	buf.Write(badHeader(2))
	buf.Write(AppendEncoded(nil, &Record{Type: TypeCommit, TxnID: checkpointTxnID, SerialOrder: 5}))
	marks := []uint64{7, 4}
	var trailer []byte
	for _, m := range marks {
		trailer = binary.LittleEndian.AppendUint64(trailer, m)
	}
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.ChecksumIEEE(trailer))
	buf.Write(trailer)
	if _, err := DecodeCheckpoint(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
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
