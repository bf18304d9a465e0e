package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/store"
)

// This file implements the one database-image format, produced by the
// fuzzy, stripe-incremental checkpointer for checkpoint files and for a
// joining mirror's state transfer alike, and stored as received in a
// mirror's log. The checkpoint is fuzzy: each lock stripe of the store
// was copied at a different moment, so one serial is not enough — it
// carries a per-stripe watermark vector, and a replay applies each logged
// write only above its own stripe's watermark.
//
// A checkpoint is one log group under the reserved checkpointTxnID, so
// the record CRCs guard all of it:
//
//	Write records, one per object (stripe by stripe), each carrying
//	        the object's write timestamp in CommitTS
//	Commit record: SerialOrder = max watermark, after image = the
//	        watermark vector (stripes × u64)
//
// A checkpoint file is therefore a log of one group, and a log that
// reaches a checkpoint group replays as the history the image starts
// (Replayer.Install).

// maxCheckpointStripes bounds the stripe count a watermark vector may
// hold.
const maxCheckpointStripes = 1 << 20

// StripeWatermarks is a checkpoint's per-stripe serial vector: mark
// i promises that every committed group with serial ≤ mark i had its
// writes installed in stripe i before that stripe was copied. Replay
// applies a logged write iff its group's serial exceeds the mark of the
// object's stripe.
type StripeWatermarks struct {
	marks []uint64
}

// NewStripeWatermarks wraps a watermark vector; len(marks) must be the
// store's stripe count (a positive power of two).
func NewStripeWatermarks(marks []uint64) *StripeWatermarks {
	return &StripeWatermarks{marks: marks}
}

// Stripes reports the stripe count.
func (w *StripeWatermarks) Stripes() int { return len(w.marks) }

// Mark reports stripe i's watermark.
func (w *StripeWatermarks) Mark(i int) uint64 { return w.marks[i] }

// For reports the watermark of the stripe id maps to.
func (w *StripeWatermarks) For(id store.ObjectID) uint64 {
	return w.marks[store.StripeOf(id, len(w.marks))]
}

// Min reports the smallest watermark — the truncation bound: every
// group at or below it is fully reflected in the checkpoint, so log
// data containing only such groups is redundant.
func (w *StripeWatermarks) Min() uint64 {
	if len(w.marks) == 0 {
		return 0
	}
	min := w.marks[0]
	for _, m := range w.marks[1:] {
		if m < min {
			min = m
		}
	}
	return min
}

// Max reports the largest watermark — the serial the checkpoint as a
// whole corresponds to once the suffix is replayed.
func (w *StripeWatermarks) Max() uint64 {
	var max uint64
	for _, m := range w.marks {
		if m > max {
			max = m
		}
	}
	return max
}

// AppendCheckpointRecord appends one snapshot record in checkpoint body
// form (a Write record under the reserved checkpoint transaction id)
// and returns the extended slice.
func AppendCheckpointRecord(dst []byte, rec store.Record) []byte {
	return AppendEncoded(dst, &Record{
		Type:       TypeWrite,
		TxnID:      checkpointTxnID,
		ObjectID:   rec.ID,
		CommitTS:   rec.WriteTS,
		AfterImage: rec.Value,
	})
}

// WriteCheckpointTrailer ends a checkpoint: the commit record that
// closes its group, carrying the max watermark as its serial and the
// watermark vector as its after image. len(marks) is the store's stripe
// count.
func WriteCheckpointTrailer(w io.Writer, marks []uint64) error {
	vec := make([]byte, 0, 8*len(marks))
	for _, m := range marks {
		vec = binary.LittleEndian.AppendUint64(vec, m)
	}
	_, err := w.Write(AppendEncoded(nil, &Record{
		Type:        TypeCommit,
		TxnID:       checkpointTxnID,
		SerialOrder: NewStripeWatermarks(marks).Max(),
		AfterImage:  vec,
	}))
	return err
}

// Checkpoint is a decoded checkpoint.
type Checkpoint struct {
	// Snapshot is the database image, one record per object.
	Snapshot []store.Record
	// LastSerial is the max stripe watermark: the serial the image as a
	// whole corresponds to once the log suffix is replayed.
	LastSerial uint64
	// Watermarks is the per-stripe replay vector.
	Watermarks *StripeWatermarks
}

// DecodeCheckpoint reads exactly one checkpoint group from r. A cut
// yields ErrIncompleteCheckpoint; a damaged record, a record of any other
// transaction or type, a bad watermark vector or a serial that is not its
// max mark yields ErrCorrupt: a checkpoint is all-or-nothing, and
// recovery must fall back to the previous one plus the log.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var writes []*Record
	for {
		rec, err := Decode(r)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrIncompleteCheckpoint
		}
		if err != nil {
			return nil, err
		}
		if rec.TxnID != checkpointTxnID {
			return nil, fmt.Errorf("%w: record of transaction %d in a checkpoint", ErrCorrupt, rec.TxnID)
		}
		if rec.Type == TypeCommit {
			return checkpointOf(&Group{Writes: writes, Commit: rec})
		}
		writes = append(writes, rec)
	}
}

// CheckpointWatermarks decodes the watermark vector carried by rec, the
// commit record of a checkpoint group. It returns nil if rec is not one,
// or if its vector is not 8 × a power of two ≤ 2²⁰ bytes.
func CheckpointWatermarks(rec *Record) *StripeWatermarks {
	vec := rec.AfterImage
	stripes := len(vec) / 8
	if rec.Type != TypeCommit || rec.TxnID != checkpointTxnID ||
		len(vec)%8 != 0 || stripes == 0 || stripes&(stripes-1) != 0 || stripes > maxCheckpointStripes {
		return nil
	}
	marks := make([]uint64, stripes)
	for i := range marks {
		marks[i] = binary.LittleEndian.Uint64(vec[8*i:])
	}
	return NewStripeWatermarks(marks)
}

// checkpointOf converts a checkpoint group, checking that it holds only
// Write records and a watermark vector of a valid stripe count whose max
// mark is the group's serial.
func checkpointOf(g *Group) (*Checkpoint, error) {
	wm := CheckpointWatermarks(g.Commit)
	if wm == nil {
		return nil, fmt.Errorf("%w: checkpoint watermark vector of %d bytes", ErrCorrupt, len(g.Commit.AfterImage))
	}
	ck := &Checkpoint{
		Snapshot:   make([]store.Record, 0, len(g.Writes)),
		LastSerial: g.SerialOrder(),
		Watermarks: wm,
	}
	if top := wm.Max(); top != ck.LastSerial {
		return nil, fmt.Errorf("%w: checkpoint serial %d, max watermark %d", ErrCorrupt, ck.LastSerial, top)
	}
	for _, w := range g.Writes {
		if w.Type != TypeWrite {
			return nil, fmt.Errorf("%w: %v record in a checkpoint", ErrCorrupt, w.Type)
		}
		ck.Snapshot = append(ck.Snapshot, store.Record{ID: w.ObjectID, Value: w.AfterImage, WriteTS: w.CommitTS})
	}
	return ck, nil
}

// checkpointTxnID marks checkpoint records; it can never collide with a
// real transaction id because ids start at 1.
const checkpointTxnID = 0

// ErrIncompleteCheckpoint reports a checkpoint stream without the final
// commit marker — the checkpoint was cut mid-write and must not be used.
var ErrIncompleteCheckpoint = errors.New("wal: incomplete checkpoint")
