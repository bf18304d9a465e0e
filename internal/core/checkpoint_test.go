package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
)

func TestCheckpointRoundTripThroughNode(t *testing.T) {
	log := logstore.NewMem()
	n := NewNode("cp", fastCfg(), newDBWith(200), log)
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 30; i++ {
		if err := n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i), []byte("checkpointed"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	st, err := n.FuzzyCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Serial != 30 {
		t.Fatalf("serial = %d, want 30", st.Serial)
	}
	ck, _, err := wal.DecodeCheckpoint(buf.Bytes())
	if err != nil || ck.LastSerial != 30 {
		t.Fatalf("decode: %v serial=%d", err, ck.LastSerial)
	}
	restored := store.New()
	restored.LoadSnapshot(ck.Snapshot)
	if restored.Checksum() != n.DB().Checksum() {
		t.Fatal("checkpoint does not reproduce the database")
	}
}

// TestCheckpointOnMirrorFails: a node without an engine cannot
// checkpoint, and the failed cycle publishes nothing.
func TestCheckpointOnMirrorFails(t *testing.T) {
	dir := t.TempDir()
	n := NewNode("m", fastCfg(), store.New(), logstore.NewMem())
	if _, err := n.CheckpointToDir(dir); err != ErrNotServing {
		t.Fatalf("err = %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed checkpoint left %d files behind", len(entries))
	}
}

func TestCheckpointToDirAndRecover(t *testing.T) {
	dir := t.TempDir()
	log := logstore.NewMem()
	n := NewNode("cp", fastCfg(), newDBWith(100), log)
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	// Phase 1: commits, then checkpoint (which truncates the log).
	for i := 0; i < 10; i++ {
		if err := n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i), []byte("phase-1"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	serial, err := n.CheckpointToDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if serial != 10 {
		t.Fatalf("serial = %d", serial)
	}
	if len(log.Bytes()) != 0 {
		t.Fatalf("log not truncated: %d bytes", len(log.Bytes()))
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.ckpt")); err != nil {
		t.Fatal(err)
	}
	// Phase 2: more commits into the fresh log tail, then crash.
	for i := 10; i < 20; i++ {
		if err := n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i), []byte("phase-2"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	want := n.DB().Checksum()
	n.Crash()

	// Recovery: checkpoint + log tail reproduces everything.
	n2 := NewNode("re", fastCfg(), store.New(), logstore.NewMem())
	st, err := n2.RecoverFromDir(dir, bytes.NewReader(log.SyncedBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 10 {
		t.Fatalf("tail applied = %d, want 10", st.Applied)
	}
	if st.LastSerial != 20 {
		t.Fatalf("LastSerial = %d, want 20", st.LastSerial)
	}
	if n2.DB().Checksum() != want {
		t.Fatal("recovered database differs")
	}
	// The recovered node serves and continues the epoch.
	if err := n2.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if err := n2.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("phase-3"))
	}}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverFromDirWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	log := logstore.NewMem()
	n1 := NewNode("a", fastCfg(), newDBWith(10), log)
	n1.ServePrimary("", LogDisk)
	n1.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("only-log"))
	}})
	n1.Crash()

	n2 := NewNode("b", fastCfg(), newDBWith(10), logstore.NewMem())
	st, err := n2.RecoverFromDir(dir, bytes.NewReader(log.SyncedBytes()))
	if err != nil || st.Applied != 1 {
		t.Fatalf("recover: %+v %v", st, err)
	}
	v, _ := n2.DB().Get(1)
	if string(v) != "only-log" {
		t.Fatalf("value = %q", v)
	}
}

func TestRecoverFromDirCheckpointOnly(t *testing.T) {
	dir := t.TempDir()
	n1 := NewNode("a", fastCfg(), newDBWith(50), logstore.NewMem())
	n1.ServePrimary("", LogDisk)
	if _, err := n1.CheckpointToDir(dir); err != nil {
		t.Fatal(err)
	}
	want := n1.DB().Checksum()
	n1.Crash()

	n2 := NewNode("b", fastCfg(), store.New(), logstore.NewMem())
	if _, err := n2.RecoverFromDir(dir, nil); err != nil {
		t.Fatal(err)
	}
	if n2.DB().Checksum() != want {
		t.Fatal("checkpoint-only recovery differs")
	}
}

func TestRecoverFromDirBadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.ckpt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	n := NewNode("x", fastCfg(), store.New(), logstore.NewMem())
	if _, err := n.RecoverFromDir(dir, nil); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

// TestRecoverFromDirRefusesOldLayout: a checkpoint file in the earlier
// layout (an "RDCKPT2" header, the records, then a CRC-guarded watermark
// trailer) is refused, and the store is left as it was — not half
// restored. Read as a record, the header declares an after image past
// the end of this small file, so the decoder sees a cut; a larger file
// fails the record CRC instead.
func TestRecoverFromDirRefusesOldLayout(t *testing.T) {
	head := binary.LittleEndian.AppendUint32([]byte("RDCKPT2\x00"), 2)
	file := binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))
	file = wal.AppendCheckpointRecords(file, []store.Record{
		{ID: 1, Value: []byte("old"), WriteTS: 1},
		{ID: 2, Value: []byte("old"), WriteTS: 1},
		{ID: 3, Value: []byte("old"), WriteTS: 1},
	})
	file = wal.AppendEncoded(file, &wal.Record{Type: wal.TypeCommit, SerialOrder: 4})
	marks := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 4), 4)
	file = binary.LittleEndian.AppendUint32(append(file, marks...), crc32.ChecksumIEEE(marks))

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.ckpt"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	n := NewNode("x", fastCfg(), newDBWith(5), logstore.NewMem())
	want := n.DB().Checksum()
	if _, err := n.RecoverFromDir(dir, nil); !errors.Is(err, wal.ErrCorrupt) && !errors.Is(err, wal.ErrIncompleteCheckpoint) {
		t.Fatalf("old-layout checkpoint: err = %v, want ErrCorrupt or ErrIncompleteCheckpoint", err)
	}
	if n.DB().Checksum() != want {
		t.Fatal("a refused checkpoint changed the store")
	}
}

// TestRecoverFromDirSeedsPastTailDelete: when the log tail ends with a
// delete, no live version carries that commit's timestamp. Recovery must
// still seed the serving engine at or above the delete's serial and
// timestamp, so the next commit orders after it.
func TestRecoverFromDirSeedsPastTailDelete(t *testing.T) {
	dir := t.TempDir()
	log := logstore.NewMem()
	n1 := NewNode("a", fastCfg(), newDBWith(20), log)
	if err := n1.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	write := func(n *Node, id store.ObjectID) {
		t.Helper()
		if err := n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
			return tx.Write(id, []byte("v"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		write(n1, store.ObjectID(i))
	}
	if _, err := n1.CheckpointToDir(dir); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		write(n1, store.ObjectID(i))
	}
	if err := n1.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		if _, err := tx.Read(15); err != nil {
			return err
		}
		return tx.Delete(15)
	}}); err != nil {
		t.Fatal(err)
	}
	n1.Crash()

	tail := log.SyncedBytes()
	var last, lastWrite *wal.Record
	for b := tail; len(b) > 0; {
		rec, n, err := wal.DecodeNext(b)
		if err != nil {
			t.Fatal(err)
		}
		b = b[n:]
		if rec.Type == wal.TypeCommit {
			last = rec
		} else {
			lastWrite = rec
		}
	}
	if last == nil || lastWrite.Type != wal.TypeDelete {
		t.Fatal("the log tail does not end with the delete's group")
	}

	n2 := NewNode("b", fastCfg(), store.New(), logstore.NewMem())
	if err := n2.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	st, err := n2.RecoverFromDir(dir, bytes.NewReader(tail))
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSerial < last.SerialOrder || st.MaxCommitTS < last.CommitTS {
		t.Fatalf("stats %+v do not cover the delete (serial %d, ts %d)", st, last.SerialOrder, last.CommitTS)
	}
	if got := n2.Engine().Controller().LastSerial(); got < last.SerialOrder {
		t.Fatalf("controller serial %d, below the delete's %d", got, last.SerialOrder)
	}
	write(n2, 19) // an object no logged group touched: only the floor orders it
	if _, wts, _ := n2.DB().Timestamps(19); wts <= last.CommitTS {
		t.Fatalf("first commit after recovery at ts %d, not above the delete's %d", wts, last.CommitTS)
	}
}

// TestMirrorWatchdogTimeout exercises the heartbeat-timeout detection
// path: a primary that goes silent (without closing the connection) must
// be declared dead after HeartbeatMisses × HeartbeatEvery.
func TestMirrorWatchdogTimeout(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// A fake primary: completes the handshake, pings once (so the
	// mirror considers the stream live), then hangs.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Recv(); err != nil { // hello
			return
		}
		conn.Send(&transport.Msg{Type: transport.MsgPing})
		time.Sleep(10 * time.Second) // silence
	}()

	cfg := fastCfg() // 25ms × 4 = 100ms watchdog
	m := NewMirrorEngine(cfg, store.New(), logstore.NewMem())
	conn, err := transport.Dial(l.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = m.Run(conn)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("silent primary not detected")
	}
	if elapsed < 90*time.Millisecond {
		t.Fatalf("detection after %v — too fast for a watchdog timeout", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("detection took %v — watchdog did not fire", elapsed)
	}
}
