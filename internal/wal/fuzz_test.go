package wal

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/store"
)

// FuzzDecode hammers the record decoders with arbitrary bytes: they must
// never panic or over-allocate, only return records or errors. DecodeNext
// walking the buffer and Decode reading it as a stream share one header
// parser and one check, so at every step they must agree on the record,
// the error class and the bytes consumed.
func FuzzDecode(f *testing.F) {
	f.Add(AppendEncoded(nil, &Record{Type: TypeWrite, TxnID: 1, ObjectID: 2, AfterImage: []byte("seed")}))
	f.Add(AppendEncoded(nil, &Record{Type: TypeCommit, TxnID: 3, SerialOrder: 4, CommitTS: 5}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for off := 0; ; {
			rec, err := Decode(r)
			next, n, nerr := DecodeNext(data[off:])
			if errClass(err) != errClass(nerr) {
				t.Fatalf("at %d: Decode error %v, DecodeNext error %v", off, err, nerr)
			}
			if err != nil {
				break
			}
			off += n
			if consumed := len(data) - r.Len(); consumed != off {
				t.Fatalf("Decode consumed %d bytes, DecodeNext %d", consumed, off)
			}
			if !sameRecord(rec, next) {
				t.Fatalf("Decode gave %v, DecodeNext %v", rec, next)
			}
			// Any decoded record must re-encode to a decodable form.
			round, err2 := Decode(bytes.NewReader(AppendEncoded(nil, rec)))
			if err2 != nil {
				t.Fatalf("re-encode of decoded record failed: %v", err2)
			}
			if !sameRecord(round, rec) {
				t.Fatal("re-encode round trip mismatch")
			}
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

func sameRecord(a, b *Record) bool {
	return a.Type == b.Type && a.TxnID == b.TxnID && a.SerialOrder == b.SerialOrder &&
		a.CommitTS == b.CommitTS && a.ObjectID == b.ObjectID && bytes.Equal(a.AfterImage, b.AfterImage)
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
