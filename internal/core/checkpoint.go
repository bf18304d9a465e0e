package core

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// checkpointFile names within a checkpoint directory.
const (
	checkpointTmp   = "checkpoint.tmp"
	checkpointFinal = "checkpoint.ckpt"
)

// CheckpointToDir writes a checkpoint file into dir atomically
// (tmp+rename+directory fsync) and then truncates the node's log below
// the checkpoint's minimum stripe watermark: the checkpoint-and-truncate
// cycle that bounds recovery time. It returns the checkpoint's serial. The checkpoint is
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
	// The log below every stripe watermark is now redundant. A
	// single-file log keeps all of it: the tail above MinWatermark still
	// matters, so use a segmented store to reclaim space.
	if _, err := n.log.TruncateBelow(st.MinWatermark); err != nil {
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

// InstallCheckpoint installs the checkpoint file CheckpointToDir writes
// into dir, if there is one ("" names no directory), into rp: the first
// step of recovering a node, before its log replays through rp. A
// damaged checkpoint is an error wrapping wal.ErrCorrupt or
// wal.ErrIncompleteCheckpoint.
func InstallCheckpoint(dir string, rp *wal.Replayer) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, checkpointFinal)
	img, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	ck, _, err := wal.DecodeCheckpoint(img)
	if err != nil {
		return fmt.Errorf("core: bad checkpoint %s: %w", path, err)
	}
	rp.Install(ck)
	return nil
}

// SetResume sets the replay position the node's recovered history ends
// at, st's LastSerial and MaxCommitTS: an engine it serves with continues
// after LastSerial, above MaxCommitTS, and its first mirror session's
// hello carries LastSerial. MaxCommitTS must cover the whole store, as a
// replay's does: every version replayed carries its group's commit
// timestamp or an image's write timestamp. Call it before the node
// serves or mirrors.
func (n *Node) SetResume(st wal.RecoverStats) {
	n.mu.Lock()
	n.resume = wal.RecoverStats{LastSerial: st.LastSerial, MaxCommitTS: st.MaxCommitTS}
	n.mu.Unlock()
}
