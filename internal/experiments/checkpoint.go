package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// CheckpointResult is one row of the fuzzy-checkpoint study: for one
// database size and checkpoint mode, the worst commit-visible stall any
// cycle caused, what the steady-state (second) cycle had to copy, the
// published checkpoint's size, and cold-restart recovery time from the
// checkpoint plus the surviving log tail.
type CheckpointResult struct {
	Objects  int
	Mode     string // "frozen" (stop-the-world ablation) or "fuzzy"
	MaxPause time.Duration
	Cycle2   string // what the second cycle copied
	Bytes    int64  // published checkpoint file size
	Recovery time.Duration
	TailTxns int
}

// CheckpointStudy compares the legacy frozen checkpoint against the
// fuzzy stripe-incremental one across database sizes. Each run takes a
// first (cold) cycle, dirties a handful of objects, takes a steady-state
// cycle, and finally publishes a checkpoint to disk, commits a log tail
// past it, and measures restart recovery. The availability claim is in
// the MaxPause column: the frozen path stalls validation for a whole
// database copy, the fuzzy path for at most one stripe — the pause
// shrinks by the stripe count instead of growing with the database. The
// Cycle2 column shows the incremental effect: a mostly-clean store
// recopies only its dirty stripes.
func CheckpointStudy(sizes []int, tail int) ([]CheckpointResult, error) {
	if len(sizes) == 0 {
		sizes = []int{2000, 8000, 32000}
	}
	if tail <= 0 {
		tail = 1000
	}
	var out []CheckpointResult
	for _, size := range sizes {
		for _, frozen := range []bool{false, true} {
			r, err := checkpointOne(size, tail, frozen)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func checkpointOne(objects, tail int, frozen bool) (CheckpointResult, error) {
	res := CheckpointResult{Objects: objects, Mode: "fuzzy", TailTxns: tail}
	if frozen {
		res.Mode = "frozen"
	}

	wl := workload.Default()
	wl.DBSize = objects
	db := store.New()
	workload.Populate(db, wl)

	cfg := core.Config{Workers: 2, FrozenCheckpoint: frozen}
	mem := logstore.NewMem()
	n := core.NewNode("ckpt", cfg, db, mem)
	if err := n.ServePrimary("", core.LogDisk); err != nil {
		return res, err
	}
	defer n.Close()

	update := func(i int, id store.ObjectID) error {
		return n.Execute(core.Request{Deadline: time.Second, Do: func(tx *core.Tx) error {
			return tx.Write(id, []byte(fmt.Sprintf("upd-%d", i)))
		}})
	}
	for i := 0; i < tail; i++ {
		if err := update(i, store.ObjectID(i%objects)); err != nil {
			return res, err
		}
	}

	// Cycle 1 — cold: every stripe is dirty, the whole store is copied
	// either way. The frozen path records its whole-store freeze and the
	// fuzzy path its per-stripe copies in the same pause histogram.
	if err := cycle(n, frozen); err != nil {
		return res, err
	}

	// Dirty a handful of objects, then take the steady-state cycle: the
	// fuzzy checkpointer recopies only the stripes those writes touched.
	for i := 0; i < 64; i++ {
		if err := update(i, store.ObjectID(i%8)); err != nil {
			return res, err
		}
	}
	if frozen {
		if err := cycle(n, frozen); err != nil {
			return res, err
		}
		res.Cycle2 = "whole store"
	} else {
		st, err := n.FuzzyCheckpoint(io.Discard)
		if err != nil {
			return res, err
		}
		res.Cycle2 = fmt.Sprintf("%d/%d stripes", st.Copied, st.Stripes)
	}
	res.MaxPause = n.CheckpointPauses().Max()

	// Publish a checkpoint, commit a tail past it, and measure restart
	// recovery from the pair — the single-node availability axis.
	dir, err := os.MkdirTemp("", "rodain-ckpt-study-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	if _, err := n.CheckpointToDir(dir); err != nil {
		return res, err
	}
	fi, err := os.Stat(filepath.Join(dir, "checkpoint.ckpt"))
	if err != nil {
		return res, err
	}
	res.Bytes = fi.Size()
	for i := 0; i < tail; i++ {
		if err := update(i, store.ObjectID((i*13)%objects)); err != nil {
			return res, err
		}
	}
	logTail := mem.SyncedBytes()
	want := n.DB().Checksum()

	fresh := core.NewNode("restart", cfg, store.New(), logstore.NewMem())
	start := simtime.Wall.Now()
	if _, err := fresh.RecoverFromDir(dir, bytes.NewReader(logTail)); err != nil {
		return res, err
	}
	res.Recovery = simtime.Wall.Now().Sub(start)
	if fresh.DB().Checksum() != want {
		return res, fmt.Errorf("experiments: %s recovery diverged at %d objects", res.Mode, objects)
	}
	return res, nil
}

// cycle runs one checkpoint of the configured flavor into the void,
// populating the node's pause metrics.
func cycle(n *core.Node, frozen bool) error {
	if frozen {
		_, err := n.Checkpoint(io.Discard)
		return err
	}
	_, err := n.FuzzyCheckpoint(io.Discard)
	return err
}

// CheckpointTable renders the study with fuzzy and frozen rows adjacent
// per database size.
func CheckpointTable(rs []CheckpointResult) *metrics.Table {
	t := &metrics.Table{
		Title:  "fuzzy vs frozen checkpointing — commit stall, incrementality, restart recovery",
		Header: []string{"objects", "mode", "max pause", "2nd cycle copies", "ckpt bytes", "restart recovery"},
	}
	for _, r := range rs {
		t.AddRow(
			fmt.Sprintf("%d", r.Objects),
			r.Mode,
			r.MaxPause.Round(time.Microsecond).String(),
			r.Cycle2,
			fmt.Sprintf("%d", r.Bytes),
			r.Recovery.Round(100*time.Microsecond).String(),
		)
	}
	return t
}
