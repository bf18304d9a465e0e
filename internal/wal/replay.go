package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/store"
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
	// Discarded counts groups dropped without their commit record: the
	// log ended inside a group (the failure aborted its transaction), or
	// Restart was called inside one. A pass over a stored log adds 0 or 1.
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

// Replay is the one decode loop: it feeds every record of a stored log
// to rp, then closes rp and returns its statistics. A group with no
// commit record at the end of the log is discarded. A truncated or
// corrupt tail ends the pass cleanly (Truncated is set); any other read
// error is returned.
func Replay(r io.Reader, rp *Replayer) (RecoverStats, error) {
	var err error
	truncated := false
	for {
		rec, derr := Decode(r)
		if derr == nil {
			_, derr = rp.Add(rec)
		}
		if derr == io.EOF {
			break
		}
		if derr == io.ErrUnexpectedEOF || errors.Is(derr, ErrCorrupt) {
			truncated = true
			break
		}
		if derr != nil {
			err = derr
			break
		}
	}
	rp.Close()
	st := rp.Stats()
	st.Truncated = truncated
	return st, err
}

// grouper collects the open group: every writer appends a transaction
// as one contiguous run of writes closed by its commit record, so a
// group is the records since the last commit. A record of another
// transaction inside the open group is corruption.
type grouper struct {
	open []*Record // the open group's writes
}

func (g *grouper) add(rec *Record) (*Group, error) {
	switch rec.Type {
	case TypeWrite, TypeDelete, TypeCommit:
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrCorrupt, rec.Type)
	}
	if len(g.open) > 0 && rec.TxnID != g.open[0].TxnID {
		return nil, fmt.Errorf("%w: a record of transaction %d inside the open group of transaction %d",
			ErrCorrupt, rec.TxnID, g.open[0].TxnID)
	}
	if rec.Type != TypeCommit {
		g.open = append(g.open, rec)
		return nil, nil
	}
	grp := &Group{Writes: g.open, Commit: rec}
	g.open = nil
	return grp, nil
}

// discard drops the open group, if any, and reports how many it dropped.
func (g *grouper) discard() int {
	if len(g.open) == 0 {
		return 0
	}
	g.open = nil
	return 1
}

// Replayer is the one redo operator, shared by crash recovery, fuzzy
// checkpoint suffix replay and the mirror's live apply, and the one place
// a database image enters the store (Install). It is one sequential pass
// of three steps, all on the caller's goroutine:
//
//   - Grouping: write records collect in the open group until its commit
//     record completes it (so nothing is ever undone); Close discards a
//     group the stream ended inside. A checkpoint group is not applied
//     but installed.
//   - Filter: after Install, a write whose group serial is at or below
//     the watermark of its object's stripe is dropped (the checkpoint
//     holds it). The commit still counts.
//   - Apply: the group goes through store.ApplyGroup before Add returns.
//
// So after every Add the store is a serial-order prefix of the stream,
// and takeover, state transfer and Install need no barrier.
//
// Add, Install, Restart and Close must be called from one goroutine;
// Stats may be called from any.
type Replayer struct {
	db    *store.Store
	wm    *StripeWatermarks // the installed checkpoint's filter; nil before Install
	wmTop uint64            // wm.Max(): a group above it passes the filter whole
	grp   grouper
	next  uint64     // live stream: the serial the next commit must carry; 0 = unchecked
	ops   []store.Op // reused: ApplyGroup keeps no reference to the slice

	mu sync.Mutex
	st RecoverStats
}

// NewReplayer returns a replayer into db.
func NewReplayer(db *store.Store) *Replayer { return &Replayer{db: db} }

// Add feeds one record. When it completes a group, the group is applied
// and returned. A checkpoint group in a stored log is installed (Install)
// and returned: it is a reset barrier, and the log replays from there as
// the history the image starts. After Restart, a commit must carry the
// next serial of the stream: any other serial, or a checkpoint group, is
// an error wrapping ErrCorrupt, and its group is neither returned nor
// applied. An unknown record type, or a record of another transaction
// inside the open group, is an error wrapping ErrCorrupt too.
func (r *Replayer) Add(rec *Record) (*Group, error) {
	g, err := r.grp.add(rec)
	if g == nil {
		return nil, err
	}
	if g.Commit.TxnID == checkpointTxnID {
		if r.next != 0 {
			return nil, fmt.Errorf("%w: checkpoint group in a live stream", ErrCorrupt)
		}
		ck, err := checkpointOf(g)
		if err != nil {
			return nil, err
		}
		r.Install(ck)
		return g, nil
	}
	if r.next != 0 {
		if g.SerialOrder() != r.next {
			return nil, fmt.Errorf("%w: commit serial %d, want %d", ErrCorrupt, g.SerialOrder(), r.next)
		}
		r.next++
	}
	r.apply(g)
	return g, nil
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
// just put a state transfer in): an open group is discarded, LastSerial
// becomes serial, MaxCommitTS rises to at least maxCommitTS, and from
// now on commits must arrive as serial+1, serial+2, …
func (r *Replayer) Restart(serial, maxCommitTS uint64) {
	n := r.grp.discard()
	r.next = serial + 1
	r.mu.Lock()
	r.st.Discarded += n
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

// Close ends the stream: an open group never committed, so it is
// discarded (counted in Discarded). The replayer must not be fed
// afterwards; Stats stays valid.
func (r *Replayer) Close() {
	n := r.grp.discard()
	r.mu.Lock()
	r.st.Discarded += n
	r.mu.Unlock()
}

// apply filters a completed group and applies it: the one place a log
// record becomes a store op. The store takes the group before the
// statistics count it, so LastSerial never runs ahead of the store.
func (r *Replayer) apply(g *Group) {
	serial := g.SerialOrder()
	filter := r.wm != nil && serial <= r.wmTop
	r.ops = r.ops[:0]
	for _, w := range g.Writes {
		if filter && serial <= r.wm.For(w.ObjectID) {
			continue
		}
		r.ops = append(r.ops, store.Op{ID: w.ObjectID, Value: w.AfterImage, Delete: w.Type == TypeDelete, Serial: serial})
	}
	r.db.ApplyGroup(r.ops, g.Commit.CommitTS)
	r.mu.Lock()
	r.st.Applied++
	r.st.WritesApplied += len(r.ops)
	r.st.WritesSkipped += len(g.Writes) - len(r.ops)
	r.st.LastSerial = max(r.st.LastSerial, serial)
	r.st.MaxCommitTS = max(r.st.MaxCommitTS, g.Commit.CommitTS)
	r.mu.Unlock()
}
