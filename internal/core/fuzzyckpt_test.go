package core

import (
	"bytes"
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

// restoreFuzzy decodes a fuzzy checkpoint, installs it and replays the
// given log suffix over it, returning the recovered store.
func restoreFuzzy(t *testing.T, ckpt, logBytes []byte) *store.Store {
	t.Helper()
	ck, _, err := wal.DecodeCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	db := store.New()
	rp := wal.NewReplayer(db)
	rp.Install(ck)
	if _, err := wal.Replay(bytes.NewReader(logBytes), rp); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFuzzyCheckpointIdleNode(t *testing.T) {
	log := logstore.NewMem()
	n := NewNode("fz", fastCfg(), newDBWith(200), log)
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 25; i++ {
		if err := n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i), []byte("fuzzy"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	st, err := n.FuzzyCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Serial != 25 || st.MinWatermark != 25 {
		t.Fatalf("idle node: serial=%d min=%d, want 25/25", st.Serial, st.MinWatermark)
	}
	if st.Copied != st.Stripes || st.Skipped != 0 {
		t.Fatalf("first cycle: copied=%d skipped=%d stripes=%d", st.Copied, st.Skipped, st.Stripes)
	}
	if st.Bytes != buf.Len() {
		t.Fatalf("Bytes=%d, wrote %d", st.Bytes, buf.Len())
	}
	if st.Records != 200 {
		t.Fatalf("Records=%d, want 200", st.Records)
	}
	got := restoreFuzzy(t, buf.Bytes(), nil)
	if got.Checksum() != n.DB().Checksum() {
		t.Fatal("idle fuzzy checkpoint does not reproduce the database")
	}
	if n.CheckpointPauses().Count() == 0 || n.CheckpointBytes().Count() != 1 {
		t.Fatal("checkpoint metrics not recorded")
	}
}

// TestFuzzyCheckpointEquivalenceUnderLoad is the acceptance property of
// the fuzzy checkpointer: checkpoints taken while committers are running
// full tilt, plus a watermark-filtered replay of the log, reproduce
// exactly the checksum of the quiesced database.
func TestFuzzyCheckpointEquivalenceUnderLoad(t *testing.T) {
	log := logstore.NewMem()
	n := NewNode("fz", fastCfg(), newDBWith(256), log)
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := store.ObjectID(rng.Intn(256))
				val := []byte{byte(seed), byte(i), byte(i >> 8)}
				n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
					if rng.Intn(20) == 0 {
						return tx.Delete(id)
					}
					return tx.Write(id, val)
				}})
			}
		}(int64(w + 1))
	}

	// Several fuzzy cycles mid-flight; the second and later ones also
	// exercise the clean-stripe cache under concurrent mutation.
	var ckpts [][]byte
	for c := 0; c < 3; c++ {
		time.Sleep(10 * time.Millisecond)
		var buf bytes.Buffer
		if _, err := n.FuzzyCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, append([]byte(nil), buf.Bytes()...))
	}
	close(stop)
	wg.Wait()

	// Quiesced: every committer has returned, so the live database is
	// the reference.
	want := n.DB().Checksum()
	logBytes := log.Bytes()
	for i, ck := range ckpts {
		got := restoreFuzzy(t, ck, logBytes)
		if got.Checksum() != want {
			t.Fatalf("checkpoint %d + suffix replay != quiesced database checksum", i)
		}
	}
}

func TestFuzzyCheckpointIncrementalSkipsCleanStripes(t *testing.T) {
	log := logstore.NewMem()
	n := NewNode("inc", fastCfg(), newDBWith(300), log)
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	var first bytes.Buffer
	st1, err := n.FuzzyCheckpoint(&first)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Copied != st1.Stripes {
		t.Fatalf("first cycle copied %d/%d stripes", st1.Copied, st1.Stripes)
	}

	// Nothing changed: every stripe is clean, and the cycle still
	// produces a complete, restorable checkpoint.
	var second bytes.Buffer
	st2, err := n.FuzzyCheckpoint(&second)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Copied != 0 || st2.Skipped != st2.Stripes {
		t.Fatalf("clean cycle: copied=%d skipped=%d", st2.Copied, st2.Skipped)
	}
	if second.Len() != first.Len() {
		t.Fatalf("clean cycle size %d differs from first %d", second.Len(), first.Len())
	}
	if got := restoreFuzzy(t, second.Bytes(), nil); got.Checksum() != n.DB().Checksum() {
		t.Fatal("clean-cycle checkpoint does not reproduce the database")
	}

	// One mutated object: exactly its stripe is re-copied.
	if err := n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		return tx.Write(7, []byte("dirty"))
	}}); err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	st3, err := n.FuzzyCheckpoint(&third)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Copied != 1 || st3.Skipped != st3.Stripes-1 {
		t.Fatalf("single-stripe cycle: copied=%d skipped=%d", st3.Copied, st3.Skipped)
	}
	// Clean stripes still raised their watermarks to the new stable
	// serial: the whole log is redundant again.
	ck, _, err := wal.DecodeCheckpoint(third.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ck.Watermarks.Min() != ck.LastSerial {
		t.Fatalf("clean stripes kept stale watermarks: min=%d last=%d",
			ck.Watermarks.Min(), ck.LastSerial)
	}
	if got := restoreFuzzy(t, third.Bytes(), log.Bytes()); got.Checksum() != n.DB().Checksum() {
		t.Fatal("incremental checkpoint does not reproduce the database")
	}
}

func TestFuzzyCheckpointOnMirrorFails(t *testing.T) {
	n := NewNode("m", fastCfg(), store.New(), logstore.NewMem())
	var buf bytes.Buffer
	if _, err := n.FuzzyCheckpoint(&buf); err != ErrNotServing {
		t.Fatalf("err = %v, want ErrNotServing", err)
	}
}

type cycleResult struct {
	serial uint64
	err    error
}

// TestCheckpointSchedulerTimeTrigger: the scheduler fires on its
// interval, and closing the node stops it: no cycle completes after
// Close returns, and one started on a closed node never runs.
func TestCheckpointSchedulerTimeTrigger(t *testing.T) {
	const every = 30 * time.Millisecond
	dir := t.TempDir()
	n := NewNode("sched", fastCfg(), newDBWith(64), logstore.NewMem())
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cycles := make(chan cycleResult, 64)
	opts := CheckpointSchedulerOptions{
		Every: every,
		OnCycle: func(serial uint64, err error) {
			cycles <- cycleResult{serial, err}
		},
	}
	n.StartCheckpointScheduler(dir, opts)
	select {
	case c := <-cycles:
		if c.err != nil {
			t.Fatal(c.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no checkpoint cycle within 5s at a 30ms interval")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.ckpt")); err != nil {
		t.Fatal(err)
	}

	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	for len(cycles) > 0 { // cycles that completed before Close returned
		<-cycles
	}
	late := n.StartCheckpointScheduler(dir, opts)
	select {
	case <-late.done:
	default:
		t.Fatal("scheduler started on a closed node is running")
	}
	select {
	case c := <-cycles:
		t.Fatalf("checkpoint cycle %+v after Close", c)
	case <-time.After(5 * every):
	}
}

func TestCheckpointSchedulerLogBytesTrigger(t *testing.T) {
	dir := t.TempDir()
	log := logstore.NewMem()
	n := NewNode("schedb", fastCfg(), newDBWith(64), log)
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cycles := make(chan cycleResult, 64)
	s := n.StartCheckpointScheduler(dir, CheckpointSchedulerOptions{
		LogBytes: 1, // any growth
		OnCycle: func(serial uint64, err error) {
			cycles <- cycleResult{serial, err}
		},
	})
	defer s.Stop()
	// No log growth, no cycles.
	select {
	case c := <-cycles:
		t.Fatalf("cycle %+v before any log growth", c)
	case <-time.After(60 * time.Millisecond):
	}
	if err := n.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("growth"))
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-cycles:
		if c.err != nil {
			t.Fatal(c.err)
		}
		if c.serial == 0 {
			t.Fatal("cycle reported serial 0 after a commit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("log growth did not trigger a checkpoint")
	}
}

// TestCheckpointSchedulerIdlesOnMirror: a node without an engine (a
// mirror) must not checkpoint; after promotion the same scheduler
// resumes.
func TestCheckpointSchedulerIdlesOnMirror(t *testing.T) {
	dir := t.TempDir()
	n := NewNode("mir", fastCfg(), newDBWith(16), logstore.NewMem())
	cycles := make(chan cycleResult, 64)
	s := n.StartCheckpointScheduler(dir, CheckpointSchedulerOptions{
		Every: 20 * time.Millisecond,
		OnCycle: func(serial uint64, err error) {
			cycles <- cycleResult{serial, err}
		},
	})
	defer s.Stop()
	select {
	case c := <-cycles:
		t.Fatalf("mirror checkpointed: %+v", c)
	case <-time.After(100 * time.Millisecond):
	}
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	select {
	case c := <-cycles:
		if c.err != nil {
			t.Fatal(c.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scheduler did not resume after promotion")
	}
}
