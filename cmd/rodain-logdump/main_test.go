package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wal"
)

// appendCommits appends n one-write groups, serials 1..n, to s.
func appendCommits(t *testing.T, s logstore.Store, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		g := wal.AppendEncoded(nil, &wal.Record{Type: wal.TypeWrite, TxnID: txn.ID(i),
			ObjectID: store.ObjectID(i), AfterImage: []byte(fmt.Sprintf("value %d", i))})
		g = wal.AppendEncoded(g, &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(i),
			SerialOrder: uint64(i), CommitTS: uint64(i)})
		if err := s.Append(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// flip inverts the byte at off of the file at path.
func flip(t *testing.T, path string, off int) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDumpRefusesDamagedSealedSegment: a segmented log with one byte
// flipped in its first sealed segment is refused with the very error
// Open refuses it with, naming the segment and the offset.
func TestDumpRefusesDamagedSealedSegment(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 150
	s, err := logstore.OpenSegmented(dir, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	appendCommits(t, s, 12)
	if names, _ := logstore.ListSegments(dir); len(names) < 5 {
		t.Fatalf("%d segments, want at least 5", len(names))
	}
	seg := filepath.Join(dir, "wal-00000001.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	flip(t, seg, int(fi.Size())/2)

	var out bytes.Buffer
	err = run([]string{dir}, &out)
	if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("run: %v, want wal.ErrCorrupt naming %s and the offset", err, seg)
	}
	_, openErr := logstore.Open(dir, segBytes, wal.NewReplayer(store.New()).Add)
	if openErr == nil || openErr.Error() != err.Error() {
		t.Fatalf("run: %v\nOpen: %v", err, openErr)
	}
}

// TestDumpReportsCutAndWritesNothing: on a single-file log with a byte
// flipped a quarter of the way in, the dump reports the offset Open cuts
// at and the bytes after it, and leaves the file as it was, with no side
// file; Open then cuts exactly there.
func TestDumpReportsCutAndWritesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.wal")
	s, err := logstore.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendCommits(t, s, 20)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data := flip(t, path, int(fi.Size())/4)
	cut := 0 // the end of the last whole group before the flipped byte
	for n := 0; ; cut += n {
		if n, _, err = wal.NextGroup(data[cut:]); err != nil {
			break
		}
	}

	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("cuts it at offset %d: %d bytes go to %s.cut-%d", cut, len(data)-cut, path, cut)
	if !strings.Contains(out.String(), want) {
		t.Fatalf("dump:\n%s\nwant %q", out.String(), want)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("the dump changed the log (%v)", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("%d files beside the log after the dump, want 0", len(ents)-1)
	}

	s, err = logstore.Open(path, 0, wal.NewReplayer(store.New()).Add)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(cut) {
		t.Fatalf("Open cut the log to %d bytes, the dump said %d", fi.Size(), cut)
	}
}
