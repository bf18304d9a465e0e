package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/logstore"
	"repro/internal/wal"
)

// checkpointFile names within a checkpoint directory.
const (
	checkpointTmp   = "checkpoint.tmp"
	checkpointFinal = "checkpoint.ckpt"
)

// CheckpointToDir writes a checkpoint file into dir atomically
// (tmp+rename+directory fsync) and then truncates the node's log below
// the checkpoint's minimum stripe watermark if the log device supports
// serial truncation: the checkpoint-and-truncate cycle that bounds
// recovery time. It returns the checkpoint's serial. The checkpoint is
// fuzzy (FuzzyCheckpoint: stripe-incremental, no validation freeze).
//
// Ordering matters: the checkpoint — and the rename that publishes it —
// is durable before the log shrinks, so a crash at any point leaves a
// recoverable pair on disk. A stale checkpoint.tmp from an earlier
// failed attempt is removed first; it was never published and holds
// nothing recovery may read.
func (n *Node) CheckpointToDir(dir string) (uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp := filepath.Join(dir, checkpointTmp)
	if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	// Buffered: the checkpointer writes one stripe at a time and would
	// otherwise pay a write syscall each.
	w := bufio.NewWriterSize(f, 256<<10)
	st, err := n.FuzzyCheckpoint(w)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointFinal)); err != nil {
		return 0, err
	}
	// The rename must be durable before the log shrinks: fsync the
	// directory, or a crash could surface the old directory entry next
	// to a truncated log.
	if err := syncDir(dir); err != nil {
		return st.Serial, fmt.Errorf("core: checkpoint written but directory sync failed: %w", err)
	}
	// The log below every stripe watermark is now redundant. A device
	// without serial truncation keeps its whole log: the tail above
	// MinWatermark still matters, so use a segmented store to reclaim
	// space.
	if _, _, err := logstore.TruncateBelow(n.log, st.MinWatermark); err != nil {
		return st.Serial, fmt.Errorf("core: checkpoint written but log truncation failed: %w", err)
	}
	return st.Serial, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Recover restores the node's database from its own stable storage,
// before it serves or mirrors: the checkpoint file in ckptDir if there is
// one ("" names no directory), then log replayed over it in one pass, each
// logged write only above its stripe's checkpoint watermark. A damaged
// checkpoint is an error wrapping wal.ErrCorrupt or
// wal.ErrIncompleteCheckpoint.
//
// The node keeps the position recovered: an engine it serves with
// continues after LastSerial, and its first mirror session's hello
// carries it. MaxCommitTS covers the whole store, since every version
// replayed carries its group's commit timestamp or an image's write
// timestamp.
func (n *Node) Recover(ckptDir string, log io.Reader) (wal.RecoverStats, error) {
	rp := wal.NewReplayer(n.db)
	if ckptDir != "" {
		ckpt := filepath.Join(ckptDir, checkpointFinal)
		img, err := os.ReadFile(ckpt)
		switch {
		case err == nil:
			ck, _, cerr := wal.DecodeCheckpoint(img)
			if cerr != nil {
				return wal.RecoverStats{}, fmt.Errorf("core: bad checkpoint %s: %w", ckpt, cerr)
			}
			rp.Install(ck)
		case !os.IsNotExist(err):
			return wal.RecoverStats{}, err
		}
	}
	st, err := wal.Replay(log, rp)
	if err != nil {
		return st, err
	}
	n.mu.Lock()
	n.resume = wal.RecoverStats{LastSerial: st.LastSerial, MaxCommitTS: st.MaxCommitTS}
	n.mu.Unlock()
	return st, nil
}
