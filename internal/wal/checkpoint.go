package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

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

// AppendCheckpointRecords appends recs in checkpoint body form, one
// Write record each under the reserved checkpoint transaction id, and
// returns the extended slice, growing dst once to the exact encoded size.
func AppendCheckpointRecords(dst []byte, recs []store.Record) []byte {
	size := 0
	for i := range recs {
		size += headerSize + len(recs[i].Value)
	}
	dst = slices.Grow(dst, size)
	for _, rec := range recs {
		dst = AppendEncoded(dst, &Record{
			Type:       TypeWrite,
			TxnID:      checkpointTxnID,
			ObjectID:   rec.ID,
			CommitTS:   rec.WriteTS,
			AfterImage: rec.Value,
		})
	}
	return dst
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

// DecodeCheckpoint decodes the checkpoint group at the start of b —
// from a checkpoint file, a state transfer or a stored log alike — and
// reports how many bytes it takes. The snapshot values alias b, so b
// must not change while the checkpoint is in use (Replayer.Install
// copies them into the store). A cut yields ErrIncompleteCheckpoint; a
// damaged record, a record of any other transaction or type, a bad
// watermark vector or a serial that is not its max mark yields
// ErrCorrupt: a checkpoint is all-or-nothing, and recovery must fall
// back to the previous one plus the log.
//
// NextGroup checks the group; a pass over the headers then counts and
// types its writes, and a last one fills a snapshot of the exact size,
// so decoding allocates the same few objects at any image size.
func DecodeCheckpoint(b []byte) (*Checkpoint, int, error) {
	n, commit, err := NextGroup(b)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, 0, ErrIncompleteCheckpoint
	}
	if err != nil {
		return nil, 0, err
	}
	if commit.TxnID != checkpointTxnID {
		return nil, 0, fmt.Errorf("%w: record of transaction %d in a checkpoint", ErrCorrupt, commit.TxnID)
	}
	wm := CheckpointWatermarks(&commit)
	if wm == nil {
		return nil, 0, fmt.Errorf("%w: checkpoint watermark vector of %d bytes", ErrCorrupt, len(commit.AfterImage))
	}
	if top := wm.Max(); top != commit.SerialOrder {
		return nil, 0, fmt.Errorf("%w: checkpoint serial %d, max watermark %d", ErrCorrupt, commit.SerialOrder, top)
	}
	writes := 0
	for p := 0; ; writes++ {
		h, imgLen, _ := parseHeader(b[p : p+headerSize])
		if h.Type == TypeCommit {
			break
		}
		if h.Type != TypeWrite {
			return nil, 0, fmt.Errorf("%w: %v record in a checkpoint", ErrCorrupt, h.Type)
		}
		p += headerSize + imgLen
	}
	ck := &Checkpoint{
		Snapshot:   make([]store.Record, writes),
		LastSerial: commit.SerialOrder,
		Watermarks: wm,
	}
	for i, p := 0, 0; i < writes; i++ {
		h, imgLen, _ := parseHeader(b[p : p+headerSize])
		p += headerSize
		rec := &ck.Snapshot[i]
		rec.ID, rec.WriteTS = h.ObjectID, h.CommitTS
		if imgLen > 0 {
			rec.Value = b[p : p+imgLen]
		}
		p += imgLen
	}
	return ck, n, nil
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

// checkpointTxnID marks checkpoint records; it can never collide with a
// real transaction id because ids start at 1.
const checkpointTxnID = 0

// ErrIncompleteCheckpoint reports a checkpoint stream without the final
// commit marker — the checkpoint was cut mid-write and must not be used.
var ErrIncompleteCheckpoint = errors.New("wal: incomplete checkpoint")
