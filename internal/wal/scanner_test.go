package wal

import (
	"math/rand"
	"testing"
)

// groupStream encodes a few transactions and returns the byte stream
// plus the set of offsets that are group boundaries (no partial frame,
// no open group).
func groupStream() (stream []byte, boundaries map[int]bool, maxSerial uint64) {
	boundaries = map[int]bool{0: true}
	add := func(recs ...*Record) {
		for _, r := range recs {
			stream = AppendEncoded(stream, r)
		}
		boundaries[len(stream)] = true
	}
	add(
		&Record{Type: TypeWrite, TxnID: 1, ObjectID: 10, AfterImage: []byte("aa")},
		&Record{Type: TypeWrite, TxnID: 1, ObjectID: 11, AfterImage: []byte("bbb")},
		&Record{Type: TypeCommit, TxnID: 1, SerialOrder: 1, CommitTS: 5},
	)
	add(
		&Record{Type: TypeDelete, TxnID: 2, ObjectID: 10},
		&Record{Type: TypeCommit, TxnID: 2, SerialOrder: 2, CommitTS: 6},
	)
	// A group with no writes (a read-only commit) is a boundary at once.
	add(&Record{Type: TypeCommit, TxnID: 3, SerialOrder: 3, CommitTS: 7})
	add(
		&Record{Type: TypeWrite, TxnID: 4, ObjectID: 13, AfterImage: []byte("x")},
		&Record{Type: TypeWrite, TxnID: 4, ObjectID: 14, AfterImage: []byte("y")},
		&Record{Type: TypeCommit, TxnID: 4, SerialOrder: 4, CommitTS: 8},
	)
	return stream, boundaries, 4
}

func TestLogScannerBoundariesByteAtATime(t *testing.T) {
	stream, boundaries, maxSerial := groupStream()
	var s LogScanner
	if !s.AtBoundary() {
		t.Fatal("empty scanner must be at a boundary")
	}
	for i := 0; i < len(stream); i++ {
		s.Scan(stream[i : i+1])
		if got, want := s.AtBoundary(), boundaries[i+1]; got != want {
			t.Fatalf("offset %d: AtBoundary = %v, want %v", i+1, got, want)
		}
	}
	if s.MaxSerial() != maxSerial {
		t.Fatalf("MaxSerial = %d, want %d", s.MaxSerial(), maxSerial)
	}
}

func TestLogScannerChunkingInvariant(t *testing.T) {
	stream, boundaries, maxSerial := groupStream()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var s LogScanner
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(len(stream)-off)
			s.Scan(stream[off : off+n])
			off += n
			if got, want := s.AtBoundary(), boundaries[off]; got != want {
				t.Fatalf("trial %d offset %d: AtBoundary = %v, want %v", trial, off, got, want)
			}
		}
		if s.MaxSerial() != maxSerial {
			t.Fatalf("trial %d: MaxSerial = %d, want %d", trial, s.MaxSerial(), maxSerial)
		}
	}
}

func TestLogScannerMidWriteNotBoundary(t *testing.T) {
	rec := AppendEncoded(nil, &Record{Type: TypeWrite, TxnID: 9, ObjectID: 1, AfterImage: make([]byte, 100)})
	var s LogScanner
	s.Scan(rec[:headerSize+10]) // header complete, image partial
	if s.AtBoundary() {
		t.Fatal("mid-image must not be a boundary")
	}
	s.Scan(rec[headerSize+10:])
	if s.AtBoundary() {
		t.Fatal("uncommitted write must not be a boundary")
	}
	s.Scan(AppendEncoded(nil, &Record{Type: TypeCommit, TxnID: 9, SerialOrder: 1}))
	if !s.AtBoundary() {
		t.Fatal("commit must close the group")
	}
	if s.Records() != 2 {
		t.Fatalf("Records = %d, want 2", s.Records())
	}
}
