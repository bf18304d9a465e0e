package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/store"
)

// FuzzDecode hammers the record decoder with arbitrary bytes: it must
// never panic or over-allocate, only return records or errors. Walking
// the buffer, every record it decodes takes exactly its encoded size and
// re-encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add(AppendEncoded(nil, &Record{Type: TypeWrite, TxnID: 1, ObjectID: 2, AfterImage: []byte("seed")}))
	f.Add(AppendEncoded(nil, &Record{Type: TypeCommit, TxnID: 3, SerialOrder: 4, CommitTS: 5}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; ; {
			rec, n, err := DecodeNext(data[off:])
			if err != nil {
				if c := errClass(err); c != "eof" && c != "truncated" && c != "corrupt" {
					t.Fatalf("at %d: DecodeNext error %v", off, err)
				}
				return
			}
			if n != EncodedSize(rec) || !bytes.Equal(AppendEncoded(nil, rec), data[off:off+n]) {
				t.Fatalf("at %d: %v takes %d bytes and does not re-encode to them", off, rec, n)
			}
			off += n
		}
	})
}

// errClass maps a decode error to the classes callers tell apart.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case err == io.ErrUnexpectedEOF:
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return err.Error()
}

// FuzzRecover feeds arbitrary bytes to the recovery pass: it must
// terminate cleanly on any input.
func FuzzRecover(f *testing.F) {
	var good bytes.Buffer
	Encode(&good, &Record{Type: TypeWrite, TxnID: 1, ObjectID: 1, AfterImage: []byte("v")})
	Encode(&good, &Record{Type: TypeCommit, TxnID: 1, SerialOrder: 1, CommitTS: 65536})
	f.Add(good.Bytes())
	f.Add([]byte("not a log at all"))
	// A log holding a checkpoint group between two ordinary ones.
	withCkpt := append([]byte(nil), good.Bytes()...)
	withCkpt = append(withCkpt, writeCheckpoint(f, []store.Record{{ID: 1, Value: []byte("img"), WriteTS: 7}}, []uint64{2, 2})...)
	withCkpt = append(withCkpt, AppendEncoded(nil, &Record{Type: TypeCommit, TxnID: 2, SerialOrder: 3, CommitTS: 1 << 17})...)
	f.Add(withCkpt)
	// An interleaved pair: transaction 2 writes inside transaction 1's
	// open group, which no writer produces.
	var interleaved []byte
	for _, rec := range []*Record{
		{Type: TypeWrite, TxnID: 1, ObjectID: 1, AfterImage: []byte("a")},
		{Type: TypeWrite, TxnID: 2, ObjectID: 2, AfterImage: []byte("b")},
		{Type: TypeCommit, TxnID: 1, SerialOrder: 1, CommitTS: 1},
		{Type: TypeCommit, TxnID: 2, SerialOrder: 2, CommitTS: 2},
	} {
		interleaved = AppendEncoded(interleaved, rec)
	}
	f.Add(interleaved)
	// The retired abort and heartbeat codes, after a good group.
	f.Add(append(append([]byte(nil), good.Bytes()...), AppendEncoded(nil, &Record{Type: 3, TxnID: 2})...))
	f.Add(append(append([]byte(nil), good.Bytes()...), AppendEncoded(nil, &Record{Type: 4})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		db := store.New()
		if _, err := Recover(bytes.NewReader(data), db); err != nil {
			t.Fatalf("Recover returned a hard error on fuzzed input: %v", err)
		}
	})
}

// FuzzGroupReaders: the stream and the frame read a log the same way.
// For any input, Replay over a reader (handing it one byte per read) and
// a NextGroup + Add loop over the same bytes apply the same prefix: the
// same store, the same counts, and at the tail the Truncated and
// Discarded that NextGroup's report implies. At every step ReadGroup
// returns exactly the bytes NextGroup takes.
func FuzzGroupReaders(f *testing.F) {
	good := append(encodeGroup(writeRec(1, 1), writeRec(1, 2), commitRec(1, 1)),
		encodeGroup(&Record{Type: TypeDelete, TxnID: 2, ObjectID: 1}, commitRec(2, 2))...)
	f.Add(good)
	f.Add(append(encodeGroup(writeRec(1, 1), commitRec(1, 1)),
		encodeGroup(writeRec(2, 2), writeRec(3, 3), commitRec(2, 2), commitRec(3, 3))...)) // an interleaved pair
	f.Add(good[:len(good)-9]) // a torn tail
	withCkpt := append(append([]byte(nil), good...),
		writeCheckpoint(f, []store.Record{{ID: 1, Value: []byte("img"), WriteTS: 7}}, []uint64{2, 2})...)
	f.Add(append(withCkpt, encodeGroup(writeRec(3, 4), commitRec(3, 3))...)) // a checkpoint group mid-log
	badMarks := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 7), 4)
	f.Add(append(append([]byte(nil), good...), watermarkRecord(5, badMarks)...)) // a whole group the replayer rejects
	f.Add(append(append([]byte(nil), good...), encodeGroup(&Record{Type: 3, TxnID: 3}, commitRec(3, 3))...))
	f.Add(append(append([]byte(nil), good...), AppendEncoded(nil, &Record{Type: 4})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := store.New()
		st, err := Replay(iotest.OneByteReader(bytes.NewReader(data)), NewReplayer(stream))
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}

		frame := store.New()
		rp := NewReplayer(frame)
		r := bytes.NewReader(data)
		var (
			g                    []byte
			truncated, discarded bool
		)
		for off := 0; ; {
			n, _, nerr := NextGroup(data[off:])
			var rerr error
			g, rerr = ReadGroup(r, g)
			if !bytes.Equal(g, data[off:off+n]) || errClass(rerr) != errClass(nerr) &&
				!(rerr == io.EOF && nerr == io.ErrUnexpectedEOF && off+n == len(data)) {
				t.Fatalf("at %d: NextGroup takes %d bytes (%v), ReadGroup %d (%v)", off, n, nerr, len(g), rerr)
			}
			if nerr != nil {
				discarded = n > 0
				truncated = nerr != io.EOF && off+n < len(data)
				break
			}
			if rp.Add(data[off:off+n]) != nil {
				truncated = true
				break
			}
			off += n
		}
		want := rp.Stats()
		want.Truncated = truncated
		if discarded {
			want.Discarded = 1
		}
		if st != want || stream.Checksum() != frame.Checksum() {
			t.Fatalf("stream %+v, frame %+v; checksums %08x, %08x", st, want, stream.Checksum(), frame.Checksum())
		}
	})
}

// FuzzDecodeCheckpoint: the checkpoint decoder reads a mirror's state
// transfer off the wire and a checkpoint file off the disk, so it must
// reject or parse any byte soup without panic. A decoded checkpoint must
// be self-consistent and keep the consumed-length contract: it used
// n ≤ len(data) bytes, data[:n] decodes to the same checkpoint, and bytes
// after n change nothing.
func FuzzDecodeCheckpoint(f *testing.F) {
	good := writeCheckpoint(f, []store.Record{{ID: 1, Value: []byte("x"), WriteTS: 3}, {ID: 9, Value: []byte("y"), WriteTS: 5}}, []uint64{7, 6})
	f.Add(good)
	f.Add(good[:len(good)-7])
	f.Add(append(append([]byte(nil), good...), "trailing"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, n, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		if ck.Watermarks == nil || ck.Watermarks.Max() != ck.LastSerial {
			t.Fatalf("decoded checkpoint: LastSerial %d, watermarks %+v", ck.LastSerial, ck.Watermarks)
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		for _, b := range [][]byte{data[:n:n], append(append([]byte(nil), data[:n]...), 0xff, 0, 1)} {
			again, m, err := DecodeCheckpoint(b)
			if err != nil || m != n || !reflect.DeepEqual(again, ck) {
				t.Fatalf("re-decoding the first %d bytes of %d (input length %d): n %d, err %v", n, len(data), len(b), m, err)
			}
		}
	})
}
