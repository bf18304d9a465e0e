package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/store"
	"repro/internal/txn"
)

// RecoverStats summarizes a replay: a recovery pass, or the live stream
// a mirror has applied so far.
type RecoverStats struct {
	// Applied is the number of committed transactions replayed.
	Applied int
	// WritesApplied is the number of after images and deletions handed
	// to the store after the watermark filter. The store still keeps the
	// version with the larger commit timestamp, so a stale write in an
	// out-of-order log counts here but changes nothing.
	WritesApplied int
	// Discarded counts groups dropped without their commit record
	// because the log ended inside one (the failure aborted its
	// transaction): Replay sets it to 0 or 1. The Replayer itself only
	// ever sees whole groups, so a live stream's count stays 0.
	Discarded int
	// LastSerial is the largest validation order replayed, zero if none.
	LastSerial uint64
	// MaxCommitTS is the largest commit timestamp replayed; a node that
	// serves after the replay seeds its concurrency controller above it.
	MaxCommitTS uint64
	// Truncated reports whether the log ended mid-record or with a
	// corrupt tail — expected after a crash; everything before the
	// damage has been applied.
	Truncated bool
	// WritesSkipped counts writes dropped by a stripe-watermark filter:
	// their group's serial was at or below the watermark of the object's
	// stripe, so the checkpoint already holds them.
	WritesSkipped int
}

// Recover replays a stored redo log into db (see Replay).
func Recover(r io.Reader, db *store.Store) (RecoverStats, error) {
	return Replay(r, NewReplayer(db))
}

// replayBufferSize is the read buffer Replay puts in front of its input;
// a *bufio.Reader at least this large is used as it is.
const replayBufferSize = 256 << 10

// Replay is the one read loop over a stored log: it reads the log a whole
// group at a time (ReadGroup, through its own read buffer, so r need not
// be buffered), hands each group to rp and returns rp's statistics. A
// group the log ends inside is discarded and counted in Discarded. A torn
// or damaged tail, or a group rp rejects, ends the pass cleanly with
// Truncated set; any other read error is returned.
func Replay(r io.Reader, rp *Replayer) (RecoverStats, error) {
	br := bufio.NewReaderSize(r, replayBufferSize)
	var (
		g   []byte
		err error
	)
	for {
		if g, err = ReadGroup(br, g); err != nil {
			break
		}
		if err = rp.Add(g); err != nil {
			g = g[:0] // a whole group, rejected: nothing was cut off
			break
		}
	}
	st := rp.Stats()
	if len(g) > 0 {
		st.Discarded++
	}
	switch {
	case err == io.EOF:
		err = nil
	case err == io.ErrUnexpectedEOF || errors.Is(err, ErrCorrupt):
		st.Truncated, err = true, nil
	}
	return st, err
}

// Replayer is the one redo operator, shared by crash recovery, fuzzy
// checkpoint suffix replay and the mirror's live apply, and the one place
// a database image enters the store (Install). It takes whole, checked
// groups (NextGroup, ReadGroup), so nothing is ever undone, and applies
// each in one sequential pass of two steps on the caller's goroutine:
//
//   - Filter: after Install, a write whose group serial is at or below
//     the watermark of its object's stripe is dropped (the checkpoint
//     holds it). The commit still counts.
//   - Apply: the group goes through store.ApplyGroup before Add returns.
//
// A checkpoint group is not applied but installed. So after every Add
// the store is a serial-order prefix of the stream, and takeover, state
// transfer and Install need no barrier.
//
// Add, Install and Restart must be called from one goroutine; Stats may
// be called from any.
type Replayer struct {
	db    *store.Store
	wm    *StripeWatermarks // the installed checkpoint's filter; nil before Install
	wmTop uint64            // wm.Max(): a group above it passes the filter whole
	next  uint64            // live stream: the serial the next commit must carry; 0 = unchecked
	ops   []store.Op        // reused: ApplyGroup keeps no reference to the slice

	mu sync.Mutex
	st RecoverStats
}

// NewReplayer returns a replayer into db.
func NewReplayer(db *store.Store) *Replayer { return &Replayer{db: db} }

// Add applies the group g, which NextGroup or ReadGroup has checked: Add
// decodes its records in place and trusts their framing and checksums.
// The store copies each after image it installs, so the caller may reuse
// g. A
// checkpoint group in a stored log decodes through DecodeCheckpoint and
// is installed (Install): it is a reset barrier, and the log replays from
// there as the history the image starts. After Restart, a commit must
// carry the next serial of the stream: any other serial, or a checkpoint
// group, is an error wrapping ErrCorrupt, and the group is not applied.
func (r *Replayer) Add(g []byte) error {
	if txn.ID(binary.LittleEndian.Uint64(g[9:])) == checkpointTxnID {
		if r.next != 0 {
			return fmt.Errorf("%w: checkpoint group in a live stream", ErrCorrupt)
		}
		ck, _, err := DecodeCheckpoint(g)
		if err != nil {
			return err
		}
		r.Install(ck)
		return nil
	}
	r.ops = r.ops[:0]
	var commit Record
	for off := 0; ; {
		rec, imgLen, _ := parseHeader(g[off : off+headerSize])
		off += headerSize
		if rec.Type == TypeCommit {
			commit = rec
			break
		}
		op := store.Op{ID: rec.ObjectID, Delete: rec.Type == TypeDelete}
		if imgLen > 0 {
			op.Value = g[off : off+imgLen]
		}
		r.ops = append(r.ops, op)
		off += imgLen
	}
	if r.next != 0 {
		if commit.SerialOrder != r.next {
			return fmt.Errorf("%w: commit serial %d, want %d", ErrCorrupt, commit.SerialOrder, r.next)
		}
		r.next++
	}
	r.apply(commit.SerialOrder, commit.CommitTS)
	return nil
}

// Install puts the database image ck in the store in place of
// everything replayed so far: it bulk-loads the image, makes its
// watermarks the filter (its stripes may already hold groups above a
// mark, and their writes there are skipped) and resets LastSerial to
// ck's serial and MaxCommitTS to its largest write timestamp. The image
// is not a transaction: Applied does not count it. Call it between
// groups.
func (r *Replayer) Install(ck *Checkpoint) {
	r.db.LoadSnapshot(ck.Snapshot)
	r.setFilter(ck.Watermarks)
	var ts uint64
	for _, rec := range ck.Snapshot {
		ts = max(ts, rec.WriteTS)
	}
	r.mu.Lock()
	r.st.LastSerial = ck.LastSerial
	r.st.MaxCommitTS = ts
	r.mu.Unlock()
}

// setFilter makes wm the watermark filter.
func (r *Replayer) setFilter(wm *StripeWatermarks) { r.wm, r.wmTop = wm, wm.Max() }

// Restart positions the replayer on a live stream whose state up to
// serial is already in the store (a session resumes there, or Install
// just put a state transfer in): LastSerial becomes serial, MaxCommitTS
// rises to at least maxCommitTS, and from now on commits must arrive as
// serial+1, serial+2, …
func (r *Replayer) Restart(serial, maxCommitTS uint64) {
	r.next = serial + 1
	r.mu.Lock()
	r.st.LastSerial = serial
	r.st.MaxCommitTS = max(r.st.MaxCommitTS, maxCommitTS)
	r.mu.Unlock()
}

// Stats reports the groups applied so far.
func (r *Replayer) Stats() RecoverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// apply filters the group's ops in r.ops and applies them at serial and
// commitTS: the one place a log record becomes a store op. The after
// images still alias the group's bytes; store.ApplyGroup copies each one
// it installs. The store takes the group before the statistics count
// it, so LastSerial never runs ahead of the store.
func (r *Replayer) apply(serial, commitTS uint64) {
	filter := r.wm != nil && serial <= r.wmTop
	writes := len(r.ops)
	kept := r.ops[:0]
	for _, op := range r.ops {
		if filter && serial <= r.wm.For(op.ID) {
			continue
		}
		op.Serial = serial
		kept = append(kept, op)
	}
	r.ops = kept
	r.db.ApplyGroup(kept, commitTS)
	r.mu.Lock()
	r.st.Applied++
	r.st.WritesApplied += len(kept)
	r.st.WritesSkipped += writes - len(kept)
	r.st.LastSerial = max(r.st.LastSerial, serial)
	r.st.MaxCommitTS = max(r.st.MaxCommitTS, commitTS)
	r.mu.Unlock()
}
