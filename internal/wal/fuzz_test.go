package wal

import (
	"bytes"
	"testing"

	"repro/internal/store"
)

// FuzzDecode hammers the record decoder with arbitrary bytes: it must
// never panic or over-allocate, only return records or errors.
func FuzzDecode(f *testing.F) {
	f.Add(AppendEncoded(nil, &Record{Type: TypeWrite, TxnID: 1, ObjectID: 2, AfterImage: []byte("seed")}))
	f.Add(AppendEncoded(nil, &Record{Type: TypeCommit, TxnID: 3, SerialOrder: 4, CommitTS: 5}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			rec, err := Decode(r)
			if err != nil {
				break
			}
			// Any decoded record must re-encode to a decodable form.
			round, err2 := Decode(bytes.NewReader(AppendEncoded(nil, rec)))
			if err2 != nil {
				t.Fatalf("re-encode of decoded record failed: %v", err2)
			}
			if round.Type != rec.Type || round.TxnID != rec.TxnID {
				t.Fatal("re-encode round trip mismatch")
			}
		}
	})
}

// FuzzRecover feeds arbitrary bytes to the recovery pass: it must
// terminate cleanly on any input.
func FuzzRecover(f *testing.F) {
	var good bytes.Buffer
	Encode(&good, &Record{Type: TypeWrite, TxnID: 1, ObjectID: 1, AfterImage: []byte("v")})
	Encode(&good, &Record{Type: TypeCommit, TxnID: 1, SerialOrder: 1, CommitTS: 65536})
	f.Add(good.Bytes())
	f.Add([]byte("not a log at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		db := store.New()
		if _, err := Recover(bytes.NewReader(data), db); err != nil {
			t.Fatalf("Recover returned a hard error on fuzzed input: %v", err)
		}
	})
}

// FuzzDecodeCheckpoint: the checkpoint decoder reads a mirror's state
// transfer off the wire, so it must reject or parse any byte soup
// without panic, and a decoded checkpoint must be self-consistent.
func FuzzDecodeCheckpoint(f *testing.F) {
	good := writeV2(f, []store.Record{{ID: 1, Value: []byte("x"), WriteTS: 3}, {ID: 9, Value: []byte("y"), WriteTS: 5}}, []uint64{7, 6})
	f.Add(good)
	f.Add(good[:len(good)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		if ck.Watermarks == nil || ck.Watermarks.Max() != ck.LastSerial {
			t.Fatalf("decoded checkpoint: LastSerial %d, watermarks %+v", ck.LastSerial, ck.Watermarks)
		}
	})
}
