package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"

	"repro/internal/store"
)

// This file implements the one checkpoint format, produced by the fuzzy,
// stripe-incremental checkpointer for checkpoint files and for a
// joining mirror's state transfer alike. The checkpoint is fuzzy: each
// lock stripe of the store was copied at a different moment, so one
// serial is not enough — it carries a per-stripe watermark vector, and a
// replay applies each logged write only above its own stripe's
// watermark.
//
// Layout:
//
//	magic "RDCKPT2\x00" (8) | stripes u32 | crc32(magic+stripes) u32
//	record stream: Write records per object (stripe by stripe),
//	               terminated by a Commit marker (SerialOrder =
//	               max watermark)
//	watermarks: stripes × u64 | crc32(watermark bytes) u32

// checkpointMagic begins every checkpoint.
const checkpointMagic = "RDCKPT2\x00"

// checkpointHeaderSize is magic + stripe count + header CRC.
const checkpointHeaderSize = 8 + 4 + 4

// maxCheckpointStripes bounds the declared stripe count so a corrupt
// header cannot cause a huge allocation.
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

// WriteCheckpointHeader begins a checkpoint: magic, stripe count and
// a CRC over both, so a corrupt count is caught before it sizes the
// watermark read.
func WriteCheckpointHeader(w io.Writer, stripes int) error {
	var buf [checkpointHeaderSize]byte
	copy(buf[:8], checkpointMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(stripes))
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[:12]))
	_, err := w.Write(buf[:])
	return err
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

// WriteCheckpointTrailer ends a checkpoint: the commit marker that
// terminates the record stream (carrying the max watermark) followed by
// the CRC-protected watermark vector. marks must match the stripe count
// declared in the header.
func WriteCheckpointTrailer(w io.Writer, marks []uint64) error {
	var max uint64
	for _, m := range marks {
		if m > max {
			max = m
		}
	}
	buf := AppendEncoded(nil, &Record{
		Type:        TypeCommit,
		TxnID:       checkpointTxnID,
		SerialOrder: max,
	})
	start := len(buf)
	for _, m := range marks {
		buf = binary.LittleEndian.AppendUint64(buf, m)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	_, err := w.Write(buf)
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

// DecodeCheckpoint reads a checkpoint from r. Incomplete or damaged
// input — including anything that does not begin with the magic — yields
// ErrIncompleteCheckpoint or ErrCorrupt: a checkpoint is all-or-nothing;
// recovery must fall back to the previous one plus the log.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var head [checkpointHeaderSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrIncompleteCheckpoint
		}
		return nil, err
	}
	if string(head[:8]) != checkpointMagic || crc32.ChecksumIEEE(head[:12]) != binary.LittleEndian.Uint32(head[12:]) {
		return nil, ErrCorrupt
	}
	stripes := int(binary.LittleEndian.Uint32(head[8:]))
	if stripes <= 0 || stripes&(stripes-1) != 0 || stripes > maxCheckpointStripes {
		return nil, ErrCorrupt
	}
	ck := &Checkpoint{}
	for {
		rec, err := Decode(r)
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, ErrCorrupt) {
				return nil, ErrIncompleteCheckpoint
			}
			return nil, err
		}
		if rec.Type == TypeCommit {
			ck.LastSerial = rec.SerialOrder
			break
		}
		if rec.Type != TypeWrite {
			return nil, ErrCorrupt
		}
		ck.Snapshot = append(ck.Snapshot, store.Record{ID: rec.ObjectID, Value: rec.AfterImage, WriteTS: rec.CommitTS})
	}
	trailer := make([]byte, 8*stripes+4)
	if _, err := io.ReadFull(r, trailer); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrIncompleteCheckpoint
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(trailer[:8*stripes]) != binary.LittleEndian.Uint32(trailer[8*stripes:]) {
		return nil, ErrCorrupt
	}
	marks := make([]uint64, stripes)
	for i := range marks {
		marks[i] = binary.LittleEndian.Uint64(trailer[8*i:])
	}
	ck.Watermarks = NewStripeWatermarks(marks)
	if s := ck.Watermarks.Max(); s != ck.LastSerial {
		return nil, ErrCorrupt
	}
	return ck, nil
}

// checkpointTxnID marks checkpoint records; it can never collide with a
// real transaction id because ids start at 1.
const checkpointTxnID = 0

// WriteCheckpoint writes a database image into a log as a bare record
// stream: one Write record per object followed by a Commit record whose
// SerialOrder is lastSerial, so a replay of the log applies the image as
// one group. It is not a checkpoint file (DecodeCheckpoint rejects it):
// its one product use is the image a mirror stores in its own log when a
// state transfer installs it.
func WriteCheckpoint(w io.Writer, snap []store.Record, lastSerial uint64) error {
	buf := make([]byte, 0, 4096)
	for _, rec := range snap {
		buf = AppendEncoded(buf[:0], &Record{
			Type:       TypeWrite,
			TxnID:      checkpointTxnID,
			ObjectID:   rec.ID,
			CommitTS:   rec.WriteTS,
			AfterImage: rec.Value,
		})
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	buf = AppendEncoded(buf[:0], &Record{
		Type:        TypeCommit,
		TxnID:       checkpointTxnID,
		SerialOrder: lastSerial,
	})
	_, err := w.Write(buf)
	return err
}

// ErrIncompleteCheckpoint reports a checkpoint stream without the final
// commit marker — the checkpoint was cut mid-write and must not be used.
var ErrIncompleteCheckpoint = errors.New("wal: incomplete checkpoint")
