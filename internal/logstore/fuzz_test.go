package logstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/wal"
)

// FuzzOpenCutsWhereReplayStops: for any file bytes, Read changes and
// creates no file, and keeps what the Open after it keeps with the same
// replay. An Open that replays the file cuts it to exactly the bytes of
// the groups the Replayer applied and keeps the rest in the side file
// <file>.cut-<n>, and a second Open of the cut file replays identical
// stats into an identical store, cuts nothing and writes no side file.
func FuzzOpenCutsWhereReplayStops(f *testing.F) {
	good := append(group(1, 1, 1, "a"), group(2, 2, 2, "b")...)
	f.Add(good)
	f.Add(good[:len(good)-5])                                        // a torn tail
	f.Add(append(append([]byte(nil), good...), rejectedGroup(3)...)) // a group the replay rejects
	f.Add(append(rejectedGroup(1), good...))
	f.Add(wal.AppendEncoded(nil, &wal.Record{Type: wal.TypeWrite, TxnID: 1, ObjectID: 1})) // no commit
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (wal.RecoverStats, uint32, int64) {
			db := store.New()
			rp := wal.NewReplayer(db)
			applied := int64(0)
			s, err := Open(path, 0, func(g []byte) error {
				err := rp.Add(g)
				if err == nil {
					applied += int64(len(g))
				}
				return err
			})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != applied {
				t.Fatalf("file cut to %d bytes, the Replayer applied groups of %d", fi.Size(), applied)
			}
			return rp.Stats(), db.Checksum(), applied
		}
		readDB := store.New()
		readRP := wal.NewReplayer(readDB)
		c, err := Read(path, readRP.Add)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("Read changed the file (%v)", err)
		}
		if files, _ := os.ReadDir(filepath.Dir(path)); len(files) != 1 {
			t.Fatalf("%d files beside the log after Read, want 0", len(files)-1)
		}
		st, sum, n := open()
		if c.Kept != n || c.Size != int64(len(data)) || readRP.Stats() != st || readDB.Checksum() != sum {
			t.Fatalf("Read keeps %d of %d bytes, %+v %08x; Open %d bytes, %+v %08x",
				c.Kept, c.Size, readRP.Stats(), readDB.Checksum(), n, st, sum)
		}
		cut, err := os.ReadFile(fmt.Sprintf("%s.cut-%d", path, n))
		if n < int64(len(data)) && (err != nil || !bytes.Equal(cut, data[n:])) {
			t.Fatalf("side file of the cut at %d: %x, %v; want %x", n, cut, err, data[n:])
		}
		st2, sum2, n2 := open()
		if st != st2 || sum != sum2 || n != n2 {
			t.Fatalf("second open: %+v %08x %d bytes, first %+v %08x %d bytes", st2, sum2, n2, st, sum, n)
		}
		want := 1
		if n == int64(len(data)) {
			want = 0
		}
		if files, _ := os.ReadDir(filepath.Dir(path)); len(files) != 1+want {
			t.Fatalf("%d files beside the log after two opens, want %d", len(files)-1, want)
		}
	})
}
