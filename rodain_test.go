package rodain

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/wal"
)

func openTest(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Populate(100, func(i int) (ObjectID, []byte) {
		return ObjectID(i), []byte(fmt.Sprintf("v%d", i))
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// one is a Populate entry function for a table of one object.
func one(id ObjectID, v string) func(int) (ObjectID, []byte) {
	return func(int) (ObjectID, []byte) { return id, []byte(v) }
}

func TestOpenUpdateView(t *testing.T) {
	db := openTest(t, Options{})
	err := db.Update(time.Second, func(tx *Tx) error {
		v, err := tx.Read(1)
		if err != nil {
			return err
		}
		return tx.Write(1, append(v, '!'))
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	err = db.View(time.Second, func(tx *Tx) error {
		v, err := tx.Read(1)
		got = v
		return err
	})
	if err != nil || string(got) != "v1!" {
		t.Fatalf("view: %q %v", got, err)
	}
	if db.Len() != 100 {
		t.Fatalf("Len = %d", db.Len())
	}
	v, ok := db.Get(1)
	if !ok || string(v) != "v1!" {
		t.Fatalf("Get = %q %v", v, ok)
	}
}

func TestStats(t *testing.T) {
	db := openTest(t, Options{})
	populated := db.Stats().Outcome.Committed
	db.Update(time.Second, func(tx *Tx) error { return tx.Write(1, []byte("x")) })
	s := db.Stats()
	if s.Outcome.Committed != populated+1 || s.Mode != "transient" {
		t.Fatalf("stats = %+v", s)
	}
	if s.LogMode != "disk" {
		t.Fatalf("log mode = %s", s.LogMode)
	}
	if db.String() == "" {
		t.Fatal("empty String")
	}
}

func TestDurabilityLevels(t *testing.T) {
	for _, d := range []Durability{DurDisk, DurRelaxed, DurNone} {
		db := openTest(t, Options{Durability: d})
		if err := db.Update(time.Second, func(tx *Tx) error {
			return tx.Write(1, []byte("y"))
		}); err != nil {
			t.Fatalf("durability %v: %v", d, err)
		}
	}
}

func TestFileBackedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rodain.log")
	db, err := Open(Options{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Populate(1, one(1, "v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(time.Second, func(tx *Tx) error {
		return tx.Write(1, []byte("durable"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseAfterCrash: Close after Crash releases the log, even with a
// checkpoint scheduler running, which the node stops when it crashes.
func TestCloseAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{
		LogPath:         filepath.Join(dir, "wal"),
		CheckpointDir:   filepath.Join(dir, "ckpt"),
		CheckpointEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBadProtocol(t *testing.T) {
	if _, err := Open(Options{Protocol: "nope"}); err == nil {
		t.Fatal("bad protocol accepted")
	}
}

func TestExecClasses(t *testing.T) {
	db := openTest(t, Options{Workers: 2})
	if err := db.Exec(NonRealTime, 0, 0, func(tx *Tx) error {
		_, err := tx.Read(1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Exec(Firm, time.Nanosecond, 0, func(tx *Tx) error {
		time.Sleep(5 * time.Millisecond)
		_, err := tx.Read(1)
		return err
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloseRejects(t *testing.T) {
	db, _ := Open(Options{})
	db.Close()
	if err := db.Update(time.Second, func(tx *Tx) error { return nil }); err == nil {
		t.Fatal("update after close succeeded")
	}
}

func TestOpenPrimaryValidation(t *testing.T) {
	if _, err := OpenPrimary(Options{}, ""); err == nil {
		t.Fatal("empty listen address accepted")
	}
}

// TestFailedOpenPrimaryStopsItsGoroutines: when the replication listener
// cannot start, OpenPrimary fails and leaves nothing running — the node
// it had started serving is closed, its committer included.
func TestFailedOpenPrimaryStopsItsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := OpenPrimary(Options{}, "127.0.0.1:99999"); err == nil {
			t.Fatal("an invalid listen address was accepted")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after five failed opens, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPairAndFailoverThroughPublicAPI(t *testing.T) {
	opts := Options{
		Workers:         2,
		HeartbeatEvery:  25 * time.Millisecond,
		HeartbeatMisses: 4,
	}
	primary, err := OpenPrimary(opts, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Populate(50, func(i int) (ObjectID, []byte) { return ObjectID(i), []byte("init") }); err != nil {
		t.Fatal(err)
	}
	mirror, err := OpenMirror(opts, primary.ReplAddr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()

	waitKind(t, primary, EventMirrorAttached)
	if !primary.Serving() || mirror.Serving() {
		t.Fatalf("roles wrong: primary serving=%v mirror serving=%v",
			primary.Serving(), mirror.Serving())
	}
	if err := primary.Update(time.Second, func(tx *Tx) error {
		return tx.Write(7, []byte("shipped"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Update(time.Second, func(tx *Tx) error { return nil }); !errors.Is(err, ErrNotServing) {
		t.Fatalf("mirror accepted a transaction: %v", err)
	}
	if primary.Stats().LogMode != "ship" {
		t.Fatalf("log mode = %s", primary.Stats().LogMode)
	}

	primary.Crash()
	waitKind(t, mirror, EventTakeover)
	// Promoted mirror serves, with the committed data.
	err = mirror.Update(time.Second, func(tx *Tx) error {
		v, err := tx.Read(7)
		if err != nil {
			return err
		}
		if string(v) != "shipped" {
			return fmt.Errorf("lost committed write: %q", v)
		}
		return tx.Write(7, []byte("after"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if mirror.ReplAddr() == "" {
		t.Fatal("promoted node has no replication listener for rejoin")
	}
}

// TestRejoinedMirrorLogIsOneHistory: a node whose log holds its own
// history (object 1 = "old", object 2) rejoins, over the same log file,
// as the mirror of a primary that holds object 1 = "new" and no object 2.
// The state transfer supersedes the old history the mirror recovered, so
// reopening the log must give the primary's database — with and without
// an update shipped after the attach.
func TestRejoinedMirrorLogIsOneHistory(t *testing.T) {
	for _, tc := range []struct {
		name   string
		update bool
	}{{"transfer-only", false}, {"update-after-attach", true}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "node.wal")
			old, err := Open(Options{LogPath: path})
			if err != nil {
				t.Fatal(err)
			}
			if err := old.Update(time.Second, func(tx *Tx) error {
				if err := tx.Write(1, []byte("old")); err != nil {
					return err
				}
				return tx.Write(2, []byte("two"))
			}); err != nil {
				t.Fatal(err)
			}
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}

			opts := Options{Workers: 2, HeartbeatEvery: 25 * time.Millisecond, HeartbeatMisses: 4}
			primary, err := OpenPrimary(opts, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			if err := primary.Populate(1, one(1, "new")); err != nil {
				t.Fatal(err)
			}
			opts.LogPath = path
			mirror, err := OpenMirror(opts, primary.ReplAddr(), "")
			if err != nil {
				t.Fatal(err)
			}
			waitKind(t, primary, EventMirrorAttached)
			want := "new"
			if tc.update {
				want = "newer"
				if err := primary.Update(time.Second, func(tx *Tx) error {
					return tx.Write(1, []byte(want))
				}); err != nil {
					t.Fatal(err)
				}
			}
			// A mirror takes over only once its log holds the transfer.
			primary.Crash()
			waitKind(t, mirror, EventTakeover)
			if err := mirror.Close(); err != nil {
				t.Fatal(err)
			}

			fresh, err := Open(Options{LogPath: path})
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if v, _ := fresh.Get(1); string(v) != want {
				t.Fatalf("object 1 = %q, want %q", v, want)
			}
			if v, ok := fresh.Get(2); ok {
				t.Fatalf("object 2 = %q, absent on the primary, survived in the rejoined log", v)
			}
		})
	}
}

func waitKind(t *testing.T, db *DB, kind EventKind) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-db.Events():
			if ev.Kind == kind {
				return
			}
		case <-deadline:
			t.Fatalf("event %v not seen", kind)
		}
	}
}

func TestPublicCheckpointCycle(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, Options{})
	for i := 0; i < 20; i++ {
		if err := db.Update(time.Second, func(tx *Tx) error {
			return tx.Write(ObjectID(i), []byte("v2"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Serial 1 is openTest's populate batch.
	serial, err := db.CheckpointToDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if serial != 21 {
		t.Fatalf("serial = %d", serial)
	}
	// More work after the checkpoint goes only to the (truncated) log.
	if err := db.Update(time.Second, func(tx *Tx) error {
		return tx.Write(1, []byte("v3"))
	}); err != nil {
		t.Fatal(err)
	}

	// A node opened on the directory restores from the checkpoint alone
	// (the in-memory log is gone with the "crashed" node).
	db2, err := Open(Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.node.Engine().Controller().LastSerial(); got != 21 {
		t.Fatalf("LastSerial = %d", got)
	}
	v, _ := db2.Get(5)
	if string(v) != "v2" {
		t.Fatalf("object 5 = %q", v)
	}
}

func TestPublicCheckpointStream(t *testing.T) {
	db := openTest(t, Options{})
	if err := db.Update(time.Second, func(tx *Tx) error {
		return tx.Write(3, []byte("streamed"))
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := db.FuzzyCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	ck, _, err := wal.DecodeCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ck.Watermarks.Stripes(), db.node.DB().NumStripes(); got != want {
		t.Fatalf("checkpoint stream has %d stripe watermarks, want %d", got, want)
	}
	fresh := store.New()
	fresh.LoadSnapshot(ck.Snapshot)
	if fresh.Checksum() != db.node.DB().Checksum() {
		t.Fatal("restored checkpoint stream does not reproduce the database")
	}
}

func TestPublicDelete(t *testing.T) {
	db := openTest(t, Options{})
	err := db.Update(time.Second, func(tx *Tx) error {
		if _, err := tx.Read(5); err != nil {
			return err
		}
		return tx.Delete(5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Get(5); ok {
		t.Fatal("object survived delete")
	}
	// Reading a deleted object inside a transaction fails like any
	// missing object.
	err = db.View(time.Second, func(tx *Tx) error {
		_, err := tx.Read(5)
		return err
	})
	if err == nil {
		t.Fatal("read of deleted object succeeded")
	}
}

func TestPublicRecover(t *testing.T) {
	// A crashed node's file log replays when the node is reopened on it.
	path := filepath.Join(t.TempDir(), "wal")
	db1, err := Open(Options{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := db1.Populate(1, one(1, "v0")); err != nil {
		t.Fatal(err)
	}
	if err := db1.Update(time.Second, func(tx *Tx) error {
		return tx.Write(1, []byte("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	db1.Crash()
	defer db1.Close()

	db2, err := Open(Options{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, ok := db2.Get(1)
	if !ok || string(v) != "v1" {
		t.Fatalf("recovered value = %q %v", v, ok)
	}
}

// TestPopulateSurvivesReopen: a populated table is in the log like any
// update, so a node reopened on its LogPath holds all of it, and the
// update that followed it.
func TestPopulateSurvivesReopen(t *testing.T) {
	opts := Options{LogPath: filepath.Join(t.TempDir(), "node.wal"), Durability: DurDisk}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Populate(10, func(i int) (ObjectID, []byte) { return ObjectID(i), []byte("initial") }); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(time.Second, func(tx *Tx) error { return tx.Write(3, []byte("updated")) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 10 {
		t.Fatalf("reopened node holds %d objects, want 10", db.Len())
	}
	for i := ObjectID(0); i < 10; i++ {
		want := map[bool]string{false: "initial", true: "updated"}[i == 3]
		if v, _ := db.Get(i); string(v) != want {
			t.Fatalf("object %d = %q, want %q", i, v, want)
		}
	}
}

// TestPopulateReachesAttachedMirror: a table populated after a mirror
// attached ships to it like any update, so the mirror's store equals the
// primary's; a mirror refuses Populate.
func TestPopulateReachesAttachedMirror(t *testing.T) {
	opts := Options{Workers: 2, HeartbeatEvery: 25 * time.Millisecond, HeartbeatMisses: 4}
	primary, err := OpenPrimary(opts, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	mirror, err := OpenMirror(opts, primary.ReplAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	waitKind(t, primary, EventMirrorAttached)

	const n = 2500
	if err := primary.Populate(n, func(i int) (ObjectID, []byte) {
		return ObjectID(i), []byte(fmt.Sprintf("entry-%d", i))
	}); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Populate(1, one(1, "x")); !errors.Is(err, ErrNotServing) {
		t.Fatalf("mirror Populate: %v, want ErrNotServing", err)
	}
	if primary.Len() != n {
		t.Fatalf("primary holds %d objects, want %d", primary.Len(), n)
	}
	want := primary.node.DB().Checksum()
	for deadline := time.Now().Add(5 * time.Second); mirror.node.DB().Checksum() != want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("mirror holds %d objects, checksum %08x; primary %d, %08x",
				mirror.Len(), mirror.node.DB().Checksum(), n, want)
		}
	}
}

// TestOpenRecoversBeforeServing: a node reopened on the options it ran
// with — one log file, or a segmented log with a checkpoint directory —
// holds exactly the store it had, gives its first commit the serial after
// the recovered history, and that commit survives one more reopen; after
// a graceful Close and after a Crash alike.
func TestOpenRecoversBeforeServing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(dir string) Options
	}{
		{"file", func(dir string) Options {
			return Options{LogPath: filepath.Join(dir, "node.wal")}
		}},
		{"segments+checkpoint", func(dir string) Options {
			return Options{
				LogPath:         filepath.Join(dir, "log"),
				LogSegmentBytes: 256,
				CheckpointDir:   filepath.Join(dir, "ckpt"),
			}
		}},
	} {
		for _, crash := range []bool{false, true} {
			stop := map[bool]string{false: "close", true: "crash"}[crash]
			t.Run(tc.name+"/"+stop, func(t *testing.T) {
				opts := tc.opts(t.TempDir())
				reopen := func(db *DB) *DB {
					t.Helper()
					if crash {
						db.Crash()
					}
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					db, err := Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					return db
				}
				write := func(db *DB, id ObjectID, v string) {
					t.Helper()
					if err := db.Update(time.Second, func(tx *Tx) error {
						return tx.Write(id, []byte(v))
					}); err != nil {
						t.Fatal(err)
					}
				}
				serial := func(db *DB) uint64 { return db.node.Engine().Controller().LastSerial() }

				db, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range []string{"a", "b", "c"} {
					write(db, 1, v)
					write(db, ObjectID(10+i), v)
					if opts.CheckpointDir != "" && i == 1 {
						if _, err := db.CheckpointToDir(opts.CheckpointDir); err != nil {
							t.Fatal(err)
						}
					}
				}
				want, last := db.node.DB().Checksum(), serial(db)

				db = reopen(db)
				if got := db.node.DB().Checksum(); got != want {
					v, _ := db.Get(1)
					t.Fatalf("reopened store differs (%d objects, object 1 = %q)", db.Len(), v)
				}
				if got := serial(db); got != last {
					t.Fatalf("reopened at serial %d, want %d", got, last)
				}
				write(db, 1, "new")
				if got := serial(db); got != last+1 {
					t.Fatalf("first commit after reopen at serial %d, want %d", got, last+1)
				}
				want = db.node.DB().Checksum()

				db = reopen(db)
				defer db.Close()
				if v, _ := db.Get(1); string(v) != "new" {
					t.Fatalf("object 1 = %q after a second reopen, want \"new\"", v)
				}
				if db.node.DB().Checksum() != want || serial(db) != last+1 {
					t.Fatalf("second reopen: store differs or serial %d, want %d", serial(db), last+1)
				}
			})
		}
	}
}

// TestOpenCorruptCheckpointLeavesNothing: a node whose checkpoint file is
// damaged fails to open with wal.ErrCorrupt and leaves nothing running:
// the replication address it was given is free again.
func TestOpenCorruptCheckpointLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	db := openTest(t, Options{})
	if _, err := db.CheckpointToDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint.ckpt")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	probe, err := OpenPrimary(Options{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.ReplAddr()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	if bad, err := OpenPrimary(Options{CheckpointDir: dir}, addr); !errors.Is(err, wal.ErrCorrupt) {
		if err == nil {
			bad.Close()
		}
		t.Fatalf("open over a corrupt checkpoint: err = %v, want wal.ErrCorrupt", err)
	}
	again, err := OpenPrimary(Options{}, addr)
	if err != nil {
		t.Fatalf("the failed open left %s in use: %v", addr, err)
	}
	again.Close()
}

// TestOpenKeepsCommitAfterRejectedGroup: the log ends at the first
// group the replay rejects, here a delete under the checkpoint
// transaction id whose record checksums all hold. Open cuts the log
// there, so a commit acknowledged after the reopen follows the replayed
// history and survives the next one.
func TestOpenKeepsCommitAfterRejectedGroup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	log := wal.AppendEncoded(nil, &wal.Record{Type: wal.TypeWrite, TxnID: 1, ObjectID: 1, AfterImage: []byte("a")})
	log = wal.AppendEncoded(log, &wal.Record{Type: wal.TypeCommit, TxnID: 1, SerialOrder: 1, CommitTS: 1})
	log = wal.AppendEncoded(log, &wal.Record{Type: wal.TypeDelete, TxnID: 0, ObjectID: 1})
	log = wal.AppendEncoded(log, &wal.Record{Type: wal.TypeCommit, TxnID: 0, SerialOrder: 2})
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get(1); string(v) != "a" {
		t.Fatalf("object 1 = %q, want \"a\"", v)
	}
	if err := db.Update(time.Second, func(tx *Tx) error { return tx.Write(2, []byte("b")) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if v, ok := db.Get(2); !ok || string(v) != "b" {
		t.Fatalf("acknowledged commit lost: object 2 = %q, %v", v, ok)
	}
}

// TestOpenKeepsTheBytesItCuts: damage a quarter of the way into a
// single-file log ends the log there, so Open serves the commits before
// it and cuts the file; the bytes it cuts, acknowledged commits among
// them, are kept in <file>.cut-<offset>, and the file and that side file
// together are the log as it was.
func TestOpenKeepsTheBytesItCuts(t *testing.T) {
	opts := Options{LogPath: filepath.Join(t.TempDir(), "node.wal")}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Update(time.Second, func(tx *Tx) error {
			return tx.Write(ObjectID(i), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(opts.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/4] ^= 0xff
	if err := os.WriteFile(opts.LogPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := db.Len(); n == 0 || n >= 20 {
		t.Fatalf("damaged log opened with %d of 20 objects, want a prefix", n)
	}
	kept, err := os.ReadFile(opts.LogPath)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := os.ReadFile(fmt.Sprintf("%s.cut-%d", opts.LogPath, len(kept)))
	if err != nil {
		t.Fatalf("no side file for the cut at %d: %v", len(kept), err)
	}
	if !bytes.Equal(append(kept, cut...), b) {
		t.Fatalf("kept %d + cut %d bytes differ from the %d-byte log", len(kept), len(cut), len(b))
	}
}

// TestOpenRefusesDamagedSealedSegment: a sealed segment was fsynced whole
// before it sealed, so damage inside one is not a torn tail: Open fails
// with wal.ErrCorrupt naming the segment, and cuts nothing, so once the
// byte is repaired the log opens with every commit.
func TestOpenRefusesDamagedSealedSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{LogPath: filepath.Join(dir, "log"), LogSegmentBytes: 256}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Update(time.Second, func(tx *Tx) error {
			return tx.Write(ObjectID(i), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := logstore.ListSegments(opts.LogPath)
	if err != nil || len(names) < 3 {
		t.Fatalf("segments %v, %v: want at least 3", names, err)
	}
	seg := filepath.Join(opts.LogPath, names[1])
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if bad, err := Open(opts); !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), names[1]) {
		if err == nil {
			bad.Close()
		}
		t.Fatalf("open over a damaged sealed segment: err = %v, want wal.ErrCorrupt naming %s", err, names[1])
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(opts)
	if err != nil {
		t.Fatalf("open after the repair: %v", err)
	}
	defer db.Close()
	if db.Len() != 20 {
		t.Fatalf("repaired log holds %d objects, want 20", db.Len())
	}
}

// TestCheckpointLogBytesWithDiskLatency: the log-growth checkpoint
// trigger reads the device's accounting through the latency shim too.
func TestCheckpointLogBytesWithDiskLatency(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{
		LogPath:              filepath.Join(dir, "node.wal"),
		SimulatedDiskLatency: time.Microsecond,
		CheckpointDir:        dir,
		CheckpointLogBytes:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 50; i++ {
		if err := db.Update(time.Second, func(tx *Tx) error { return tx.Write(ObjectID(i), []byte("x")) }); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := os.Stat(filepath.Join(dir, "checkpoint.ckpt")); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written after 50 commits with CheckpointLogBytes 1")
		}
	}
}

func TestOpenMirrorBadOptions(t *testing.T) {
	if _, err := OpenMirror(Options{Protocol: "bogus"}, "127.0.0.1:1", ""); err == nil {
		t.Fatal("bad protocol accepted by OpenMirror")
	}
}

// TestUnreachableMirrorIsMirror: a mirror whose primary never answers
// reports itself a mirror, not a primary, while it dials, and Close does
// not wait out the dial.
func TestUnreachableMirrorIsMirror(t *testing.T) {
	db, err := OpenMirror(Options{}, "127.0.0.1:1", "")
	if err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Mode != "mirror" || db.Serving() {
		t.Fatalf("mode %q serving %v, want a mirror not serving", st.Mode, db.Serving())
	}
	start := time.Now()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v", d)
	}
	if st := db.Stats(); st.Mode != "mirror" || db.Serving() {
		t.Fatalf("after Close: mode %q serving %v", st.Mode, db.Serving())
	}
}
