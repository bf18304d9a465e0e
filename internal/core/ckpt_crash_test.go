package core

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/wal"
)

// shadowLog wraps a log store and keeps the complete append history,
// surviving the truncation the checkpoint cycle performs on the inner
// store — the crash tests need both the full stream (what a crash at an
// earlier step would find) and the truncated one (what is actually left).
// Appends serialize under the shadow lock so the history matches the
// inner stream byte for byte.
type shadowLog struct {
	mu    sync.Mutex
	inner logstore.Store
	all   []byte
}

func (s *shadowLog) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.inner.Append(p); err != nil {
		return err
	}
	s.all = append(s.all, p...)
	return nil
}

func (s *shadowLog) AppendBatch(chunks [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.inner.AppendBatch(chunks); err != nil {
		return err
	}
	for _, p := range chunks {
		s.all = append(s.all, p...)
	}
	return nil
}

func (s *shadowLog) Sync() error  { return s.inner.Sync() }
func (s *shadowLog) Close() error { return s.inner.Close() }

// TruncateBelow forwards to the inner store (both inner stores used in
// these tests support it), so CheckpointToDir truncates for real while
// the shadow history stays whole.
func (s *shadowLog) TruncateBelow(serial uint64) (int, error) {
	return s.inner.(logstore.SerialTruncator).TruncateBelow(serial)
}

func (s *shadowLog) History() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.all...)
}

// runCommitters hammers the node with small write/delete transactions
// from several goroutines until the returned stop function is called.
func runCommitters(n *Node, workers, idDomain int) (stop func()) {
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				id := store.ObjectID(rng.Intn(idDomain))
				val := []byte{byte(seed), byte(i), byte(i >> 8)}
				n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
					if rng.Intn(25) == 0 {
						return tx.Delete(id)
					}
					return tx.Write(id, val)
				}})
			}
		}(int64(w + 1))
	}
	return func() {
		close(stopCh)
		wg.Wait()
	}
}

// recoverChecksum runs RecoverFromDir on a fresh node and returns the
// resulting checksum.
func recoverChecksum(t *testing.T, dir string, log []byte) uint32 {
	t.Helper()
	n := NewNode("rec", fastCfg(), store.New(), logstore.NewMem())
	var r io.Reader
	if log != nil {
		r = bytes.NewReader(log)
	}
	if _, err := n.RecoverFromDir(dir, r); err != nil {
		t.Fatal(err)
	}
	return n.DB().Checksum()
}

// TestCheckpointCrashConsistency walks the checkpoint → fsync → rename →
// truncate cycle and materializes the on-disk state a crash at every
// step would leave behind (including a crash mid-fuzzy-copy, simulated
// by cutting the checkpoint stream at arbitrary byte offsets). From each
// state, recovery must either reproduce the reference checksum exactly
// or refuse the damaged checkpoint — never silently restore wrong data.
func TestCheckpointCrashConsistency(t *testing.T) {
	mem := logstore.NewMem()
	shadow := &shadowLog{inner: mem}
	// The store starts empty so the log is the COMPLETE history: the
	// log-only crash state (step 0) must be able to rebuild everything.
	n := NewNode("crash", fastCfg(), store.New(), shadow)
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}

	stop := runCommitters(n, 3, 128)
	time.Sleep(15 * time.Millisecond)

	// The real cycle runs with committers in full flight.
	dir := t.TempDir()
	if _, err := n.CheckpointToDir(dir); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)
	stop()

	want := n.DB().Checksum()
	full := shadow.History()
	remaining := mem.SyncedBytes()
	ckptBytes, err := os.ReadFile(filepath.Join(dir, "checkpoint.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	n.Crash()

	// Step 0 — crash before any checkpoint: the full log alone recovers.
	if got := recoverChecksum(t, t.TempDir(), full); got != want {
		t.Fatal("log-only recovery differs")
	}

	// Step 1 — crash mid-tmp-write: an unpublished, partial (or garbage)
	// checkpoint.tmp is ignored; the full log still recovers.
	for _, tmp := range [][]byte{[]byte("garbage"), ckptBytes[:len(ckptBytes)/3]} {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, "checkpoint.tmp"), tmp, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := recoverChecksum(t, d, full); got != want {
			t.Fatal("recovery with a stale checkpoint.tmp differs")
		}
	}

	// Step 2 — crash after rename, before truncation: published
	// checkpoint plus the FULL log. Replaying records the checkpoint
	// already holds must be idempotent.
	d2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(d2, "checkpoint.ckpt"), ckptBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := recoverChecksum(t, d2, full); got != want {
		t.Fatal("checkpoint + untruncated log differs")
	}

	// Step 3 — the completed cycle: published checkpoint + truncated log.
	if got := recoverChecksum(t, dir, remaining); got != want {
		t.Fatal("checkpoint + truncated log differs")
	}

	// Truncation safety: the dropped prefix contains only groups at or
	// below the checkpoint's watermark for every object they touch.
	ck, _, err := wal.DecodeCheckpoint(ckptBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(full, remaining) {
		t.Fatal("surviving log is not a suffix of the append history")
	}
	dropped := full[:len(full)-len(remaining)]
	assertDroppedCovered(t, dropped, ck.Watermarks)

	// Step 4 — crash mid-fuzzy-copy, torn file published by a buggy or
	// hostile filesystem: every prefix of the checkpoint must be
	// rejected, not half-restored.
	for _, cut := range []int{0, 7, len(ckptBytes) / 2, len(ckptBytes) - 1} {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, "checkpoint.ckpt"), ckptBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n4 := NewNode("torn", fastCfg(), store.New(), logstore.NewMem())
		if _, err := n4.RecoverFromDir(d, bytes.NewReader(full)); err == nil {
			t.Fatalf("torn checkpoint (cut at %d/%d) accepted", cut, len(ckptBytes))
		}
	}
}

// assertDroppedCovered decodes a truncated-away log prefix and fails if
// any committed group in it carries a write above the watermark of the
// written object's stripe — the invariant that makes truncation safe.
func assertDroppedCovered(t *testing.T, dropped []byte, wm *wal.StripeWatermarks) {
	t.Helper()
	if wm == nil {
		t.Fatal("fuzzy checkpoint without watermarks")
	}
	var open []*wal.Record // the open group's writes
	commits := 0
	for {
		rec, n, err := wal.DecodeNext(dropped)
		if err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("dropped prefix does not decode cleanly: %v", err)
		}
		dropped = dropped[n:]
		switch rec.Type {
		case wal.TypeWrite, wal.TypeDelete:
			open = append(open, rec)
		case wal.TypeCommit:
			commits++
			if rec.SerialOrder > wm.Min() {
				t.Fatalf("dropped group serial %d above the minimum watermark %d",
					rec.SerialOrder, wm.Min())
			}
			for _, w := range open {
				if rec.SerialOrder > wm.For(w.ObjectID) {
					t.Fatalf("dropped write to object %d at serial %d above its stripe watermark %d",
						w.ObjectID, rec.SerialOrder, wm.For(w.ObjectID))
				}
			}
			open = nil
		}
	}
	if len(open) != 0 {
		t.Fatalf("truncation stranded %d writes of an open group", len(open))
	}
}

// TestSegmentedCheckpointTruncationInvariant drives repeated fuzzy
// checkpoint cycles against a segmented log under concurrent commit
// load, then proves (a) whole-segment truncation never dropped a record
// above any stripe watermark of the final published checkpoint and (b)
// crash recovery from the checkpoint plus the surviving segments
// reproduces the live database.
func TestSegmentedCheckpointTruncationInvariant(t *testing.T) {
	logDir := t.TempDir()
	seg, err := logstore.OpenSegmented(logDir, 2<<10) // tiny segments: rolls constantly
	if err != nil {
		t.Fatal(err)
	}
	shadow := &shadowLog{inner: seg}
	n := NewNode("seginv", fastCfg(), newDBWith(128), shadow)
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}

	stop := runCommitters(n, 3, 128)
	ckptDir := t.TempDir()
	for cycle := 0; cycle < 4; cycle++ {
		time.Sleep(15 * time.Millisecond)
		if _, err := n.CheckpointToDir(ckptDir); err != nil {
			t.Fatal(err)
		}
	}
	stop()

	want := n.DB().Checksum()
	full := shadow.History()
	if seg.Reclaimed() == 0 {
		t.Fatal("no segment was ever truncated; the invariant was not exercised")
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	n.Crash()

	rc, err := logstore.OpenSegmentsReader(logDir)
	if err != nil {
		t.Fatal(err)
	}
	remaining, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(full, remaining) {
		t.Fatal("surviving segments are not a suffix of the append history")
	}

	ckptBytes, err := os.ReadFile(filepath.Join(ckptDir, "checkpoint.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := wal.DecodeCheckpoint(ckptBytes)
	if err != nil {
		t.Fatal(err)
	}
	// (a) Every record in every dropped segment is covered by the final
	// checkpoint's watermarks. Earlier cycles' watermarks were only
	// lower, so coverage by the final vector is the binding check.
	assertDroppedCovered(t, full[:len(full)-len(remaining)], ck.Watermarks)

	// (b) Recovery from the checkpoint directory plus the surviving
	// segment stream reproduces the crashed primary.
	if got := recoverChecksum(t, ckptDir, remaining); got != want {
		t.Fatal("segmented crash recovery differs from the live database")
	}
}
