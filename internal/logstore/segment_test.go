package logstore

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wal"
)

// group encodes one committed transaction (a write plus its commit) as
// one appendable chunk — the unit the committer hands the log store.
func group(id, serial uint64, obj store.ObjectID, val string) []byte {
	b := wal.AppendEncoded(nil, &wal.Record{
		Type: wal.TypeWrite, TxnID: txn.ID(id), ObjectID: obj, AfterImage: []byte(val),
	})
	return wal.AppendEncoded(b, &wal.Record{
		Type: wal.TypeCommit, TxnID: txn.ID(id), SerialOrder: serial, CommitTS: serial,
	})
}

// readAll drains the directory's segment concatenation.
func readAll(t *testing.T, dir string) []byte {
	t.Helper()
	r, err := OpenSegmentsReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// appendGroups appends n committed groups starting at serial start and
// returns the concatenated bytes it appended.
func appendGroups(t *testing.T, s Store, start uint64, n int) []byte {
	t.Helper()
	var all []byte
	for i := 0; i < n; i++ {
		serial := start + uint64(i)
		g := group(serial, serial, store.ObjectID(serial%17), fmt.Sprintf("v%d", serial))
		if err := s.Append(g); err != nil {
			t.Fatal(err)
		}
		all = append(all, g...)
	}
	return all
}

func TestSegmentedRollsAtGroupBoundaries(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 256) // tiny: rolls every couple of groups
	if err != nil {
		t.Fatal(err)
	}
	want := appendGroups(t, s, 1, 40)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) < 3 {
		t.Fatalf("only %d segments after 40 groups at a 256-byte threshold", len(segs))
	}
	// Every sealed segment is a self-contained group sequence with a
	// truthful (if conservative) sealing serial.
	var prevMax uint64
	var cursor wal.LogScanner
	for _, seg := range segs[:len(segs)-1] {
		if !seg.Sealed {
			t.Fatalf("segment %s not sealed", seg.Name)
		}
		if seg.MaxSerial < prevMax {
			t.Fatalf("sealing serials not monotone: %s at %d after %d", seg.Name, seg.MaxSerial, prevMax)
		}
		prevMax = seg.MaxSerial
		b, err := os.ReadFile(filepath.Join(dir, seg.Name))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(b)) != seg.Bytes {
			t.Fatalf("segment %s: %d bytes on disk, info says %d", seg.Name, len(b), seg.Bytes)
		}
		var one wal.LogScanner
		one.Scan(b)
		if !one.AtBoundary() {
			t.Fatalf("segment %s does not end at a group boundary", seg.Name)
		}
		if one.MaxSerial() > seg.MaxSerial {
			t.Fatalf("segment %s holds serial %d above its sealing bound %d",
				seg.Name, one.MaxSerial(), seg.MaxSerial)
		}
		cursor.Scan(b)
	}
	if got := readAll(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("segment concatenation differs: %d bytes, want %d", len(got), len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedAppendBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 300)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	var batch [][]byte
	for i := uint64(1); i <= 30; i++ {
		g := group(i, i, store.ObjectID(i), "batched")
		batch = append(batch, g)
		want = append(want, g...)
		if len(batch) == 5 {
			if err := s.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dir); !bytes.Equal(got, want) {
		t.Fatal("batched segment stream differs from appended bytes")
	}
}

func TestSegmentedReopenContinues(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	want := appendGroups(t, s, 1, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, appendGroups(t, s2, 21, 20)...)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dir); !bytes.Equal(got, want) {
		t.Fatal("stream across reopen differs")
	}
	// Sealing serials survived the reopen rescan.
	s3, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	segs := s3.Segments()
	if segs[0].MaxSerial == 0 || !segs[0].Sealed {
		t.Fatalf("first segment after reopen: %+v", segs[0])
	}
}

// TestSegmentedReopenDropsTornTail runs on a segment directory and on a
// single-file log: either way, the commit appended after the reopen
// must follow the last whole group, not the torn record that replay
// stops at.
func TestSegmentedReopenDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "pair.wal")
	for _, tc := range []struct {
		name string
		open func() (Store, error)
		path string // the active file the crash tears
		read func(t *testing.T) []byte
	}{{
		name: "segmented",
		open: func() (Store, error) { return OpenSegmented(dir, 1<<20) }, // one active segment
		path: filepath.Join(dir, "wal-00000001.seg"),
		read: func(t *testing.T) []byte { return readAll(t, dir) },
	}, {
		name: "file",
		open: func() (Store, error) { return OpenFile(file) },
		path: file,
		read: func(t *testing.T) []byte {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			want := appendGroups(t, s, 1, 5)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Crash mid-append: garbage half-record at the tail.
			f, err := os.OpenFile(tc.path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			torn := wal.AppendEncoded(nil, &wal.Record{
				Type: wal.TypeWrite, TxnID: 99, ObjectID: 1, AfterImage: []byte("never committed"),
			})
			if _, err := f.Write(torn[:len(torn)-3]); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, appendGroups(t, s2, 6, 1)...)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			if got := tc.read(t); !bytes.Equal(got, want) {
				t.Fatalf("torn tail not truncated back to the boundary: %d bytes, want %d", len(got), len(want))
			}
		})
	}
}

// TestOpenFileCutsWhereReplayStops: for seeded random logs — groups of
// writes and deletes, sometimes an interleaved pair that no writer
// produces — cut at random offsets, the boundary OpenFile reopens at is
// exactly the bytes of the whole groups a replay of the same file
// applies, and the file is cut back to it.
func TestOpenFileCutsWhereReplayStops(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			log    []byte
			groups []int // each whole group's end offset in log
		)
		interleaveAt := -1
		if rng.Intn(2) == 0 {
			interleaveAt = rng.Intn(8)
		}
		for i := 0; i < 8; i++ {
			id := uint64(i + 1)
			if i == interleaveAt { // the next transaction writes inside this one's group
				log = wal.AppendEncoded(log, &wal.Record{Type: wal.TypeWrite, TxnID: txn.ID(id), ObjectID: 1, AfterImage: []byte("a")})
				log = wal.AppendEncoded(log, &wal.Record{Type: wal.TypeWrite, TxnID: txn.ID(id + 100), ObjectID: 2, AfterImage: []byte("b")})
				log = wal.AppendEncoded(log, &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(id), SerialOrder: id, CommitTS: id})
				continue
			}
			for w := rng.Intn(4); w > 0; w-- {
				rec := &wal.Record{Type: wal.TypeWrite, TxnID: txn.ID(id), ObjectID: store.ObjectID(rng.Intn(10)),
					AfterImage: make([]byte, rng.Intn(20))}
				if rng.Intn(5) == 0 {
					rec = &wal.Record{Type: wal.TypeDelete, TxnID: txn.ID(id), ObjectID: rec.ObjectID}
				}
				log = wal.AppendEncoded(log, rec)
			}
			log = wal.AppendEncoded(log, &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(id), SerialOrder: id, CommitTS: id})
			groups = append(groups, len(log))
		}
		log = log[:rng.Intn(len(log)+1)]
		path := filepath.Join(dir, fmt.Sprintf("seed%d.wal", seed))
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := wal.Recover(bytes.NewReader(log), store.New())
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if st.Applied > 0 {
			want = int64(groups[st.Applied-1])
		}
		s, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := s.Segments()[0].Bytes
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || fi.Size() != want {
			t.Fatalf("seed %d (interleaved at %d, %d bytes): opener boundary %d, file %d bytes, replay applied %d groups = %d bytes",
				seed, interleaveAt, len(log), got, fi.Size(), st.Applied, want)
		}
	}
}

// TestSegmentedReopenDropsUncommittedBoundary: a complete record stream
// that ends mid-transaction (write without commit) is also not a
// boundary; reopen must rewind behind the whole dangling group.
func TestSegmentedReopenDropsUncommittedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := appendGroups(t, s, 1, 3)
	dangling := wal.AppendEncoded(nil, &wal.Record{
		Type: wal.TypeWrite, TxnID: 50, ObjectID: 9, AfterImage: []byte("no commit"),
	})
	if err := s.Append(dangling); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegmented(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("dangling group survived reopen: %d bytes, want %d", len(got), len(want))
	}
}

// TestSegmentedRollsAfterDroppingUncommittedTail: the writes a reopen
// cuts off must not reach the boundary scanner either, or it would wait
// for their commit forever and the log would never roll again.
func TestSegmentedRollsAfterDroppingUncommittedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	appendGroups(t, s, 1, 1)
	dangling := wal.AppendEncoded(nil, &wal.Record{
		Type: wal.TypeWrite, TxnID: 50, ObjectID: 9, AfterImage: []byte("no commit"),
	})
	if err := s.Append(dangling); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	appendGroups(t, s2, 2, 20)
	if segs := s2.Segments(); len(segs) < 3 {
		t.Fatalf("only %d segments after 20 groups at a 256-byte threshold", len(segs))
	}
}

func TestSegmentedTruncateBelowDropsOnlyCoveredPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendGroups(t, s, 1, 40)
	segs := s.Segments()
	if len(segs) < 4 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	bound := segs[1].MaxSerial // covers the first two sealed segments

	n, err := s.TruncateBelow(bound)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(segs[0].Bytes + segs[1].Bytes); n != want {
		t.Fatalf("reclaimed %d bytes, want %d", n, want)
	}
	if s.Reclaimed() != uint64(n) {
		t.Fatalf("Reclaimed() = %d, want %d", s.Reclaimed(), n)
	}
	after := s.Segments()
	if after[0].Name != segs[2].Name {
		t.Fatalf("surviving head = %s, want %s", after[0].Name, segs[2].Name)
	}
	// Every surviving record above the bound is still replayable, and
	// nothing above the bound was dropped: the remaining stream must
	// contain every commit with serial > bound.
	var scan wal.LogScanner
	remaining := readAll(t, dir)
	scan.Scan(remaining)
	if scan.MaxSerial() != 40 {
		t.Fatalf("surviving stream tops out at %d, want 40", scan.MaxSerial())
	}
	db := store.New()
	st, err := wal.Recover(bytes.NewReader(remaining), db)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSerial != 40 {
		t.Fatalf("replay of survivors ends at %d, want 40", st.LastSerial)
	}

	// Truncating below everything leaves the active segment.
	if _, err := s.TruncateBelow(1 << 60); err != nil {
		t.Fatal(err)
	}
	final := s.Segments()
	if len(final) != 1 || final[0].Sealed {
		t.Fatalf("after full truncation: %+v", final)
	}
}

func TestSegmentedTruncateBelowZeroIsNoOp(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendGroups(t, s, 1, 20)
	before := len(s.Segments())
	if n, err := s.TruncateBelow(0); err != nil || n != 0 {
		t.Fatalf("TruncateBelow(0) = %d, %v", n, err)
	}
	if len(s.Segments()) != before {
		t.Fatal("TruncateBelow(0) dropped segments")
	}
}

func TestSegmentedClosed(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := s.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after close: %v", err)
	}
	if err := s.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close: %v", err)
	}
	if _, err := s.TruncateBelow(1); err != ErrClosed {
		t.Fatalf("TruncateBelow after close: %v", err)
	}
}

func TestOpenSegmentsReaderAbsentDir(t *testing.T) {
	r, err := OpenSegmentsReader(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil || len(b) != 0 {
		t.Fatalf("absent dir: %d bytes, %v", len(b), err)
	}
}

func TestListSegmentsOrderAndFilter(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal-00000010.seg", "wal-00000002.seg", "notes.txt", "wal-x.seg"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "wal-00000002.seg" || names[1] != "wal-00000010.seg" {
		t.Fatalf("ListSegments = %v", names)
	}
}

func TestMemTruncateBelow(t *testing.T) {
	m := NewMem()
	var chunks [][]byte
	for i := uint64(1); i <= 10; i++ {
		chunks = append(chunks, group(i, i, store.ObjectID(i), "mem"))
	}
	for _, c := range chunks {
		if err := m.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	// Truncate below serial 4: groups 1..4 go, 5..10 stay.
	n, err := m.TruncateBelow(4)
	if err != nil {
		t.Fatal(err)
	}
	wantDropped := len(chunks[0]) + len(chunks[1]) + len(chunks[2]) + len(chunks[3])
	if n != wantDropped {
		t.Fatalf("dropped %d bytes, want %d", n, wantDropped)
	}
	db := store.New()
	st, err := wal.Recover(bytes.NewReader(m.Bytes()), db)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 6 || st.LastSerial != 10 {
		t.Fatalf("survivors: %+v", st)
	}
	// SyncedBytes stayed consistent with Bytes.
	if !bytes.Equal(m.SyncedBytes(), m.Bytes()) {
		t.Fatal("synced marker diverged from the data after truncation")
	}
	// Truncating below everything empties the log.
	if _, err := m.TruncateBelow(100); err != nil {
		t.Fatal(err)
	}
	if len(m.Bytes()) != 0 {
		t.Fatalf("%d bytes survived full truncation", len(m.Bytes()))
	}
}

// TestMemTruncateBelowStopsAtOpenTransaction: the cut point can only be
// a group boundary — a covered commit followed by an open group must not
// take the open group's writes with it, or its commit would land behind
// the cut without them.
func TestMemTruncateBelowStopsAtOpenTransaction(t *testing.T) {
	m := NewMem()
	// txn 1 writes and commits (serial 1); txn 2 writes, commit pending.
	var b []byte
	b = wal.AppendEncoded(b, &wal.Record{Type: wal.TypeWrite, TxnID: 1, ObjectID: 1, AfterImage: []byte("a")})
	b = wal.AppendEncoded(b, &wal.Record{Type: wal.TypeCommit, TxnID: 1, SerialOrder: 1, CommitTS: 1})
	first := len(b)
	b = wal.AppendEncoded(b, &wal.Record{Type: wal.TypeWrite, TxnID: 2, ObjectID: 2, AfterImage: []byte("b")})
	if err := m.Append(b); err != nil {
		t.Fatal(err)
	}
	if n, err := m.TruncateBelow(1); err != nil || n != first {
		t.Fatalf("dropped %d bytes (%v), want exactly serial 1's group of %d", n, err, first)
	}
	if n, err := m.TruncateBelow(5); err != nil || n != 0 {
		t.Fatalf("cut inside the open group: dropped %d bytes, %v", n, err)
	}
	tail := wal.AppendEncoded(nil, &wal.Record{Type: wal.TypeCommit, TxnID: 2, SerialOrder: 2, CommitTS: 2})
	if err := m.Append(tail); err != nil {
		t.Fatal(err)
	}
	db := store.New()
	st, err := wal.Recover(bytes.NewReader(m.Bytes()), db)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := db.Get(2); st.LastSerial != 2 || !ok || string(v) != "b" {
		t.Fatalf("serial 2's group lost: %+v, object 2 = %q", st, v)
	}
}

func TestTruncateBelowHelper(t *testing.T) {
	m := NewMem()
	if err := m.Append(group(1, 1, 1, "x")); err != nil {
		t.Fatal(err)
	}
	did, n, err := TruncateBelow(m, 1)
	if err != nil || !did || n == 0 {
		t.Fatalf("Mem: did=%v n=%d err=%v", did, n, err)
	}
	// A store without the capability reports !did and no error.
	did, n, err = TruncateBelow(plainStore{NewMem()}, 1)
	if err != nil || did || n != 0 {
		t.Fatalf("plain store: did=%v n=%d err=%v", did, n, err)
	}
	// Delayed forwards to its inner store.
	d := NewDelayed(NewMem(), 0)
	if err := d.Append(group(2, 2, 2, "y")); err != nil {
		t.Fatal(err)
	}
	did, _, err = TruncateBelow(d, 2)
	if err != nil || !did {
		t.Fatalf("Delayed: did=%v err=%v", did, err)
	}
	if did, _, err := TruncateBelow(NewDelayed(plainStore{NewMem()}, 0), 2); err != nil || did {
		t.Fatalf("Delayed(plain store): did=%v err=%v", did, err)
	}
}

// plainStore hides every capability of the store it wraps but Store's.
type plainStore struct{ Store }
