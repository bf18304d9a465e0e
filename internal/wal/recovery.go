package wal

import (
	"errors"
	"io"

	"repro/internal/store"
)

// RecoverStats summarizes a recovery pass.
type RecoverStats struct {
	// Applied is the number of committed transactions replayed.
	Applied int
	// WritesApplied is the number of after images installed.
	WritesApplied int
	// Discarded is the number of transactions whose writes were present
	// but that had no commit record (aborted by the failure).
	Discarded int
	// LastSerial is the validation order of the last transaction
	// replayed, zero if none.
	LastSerial uint64
	// Truncated reports whether the log ended mid-record or with a
	// corrupt tail — expected after a crash; everything before the
	// damage has been applied.
	Truncated bool
	// PeakBuffered is the largest number of write records buffered
	// while waiting for a commit record. A log stored in reordered
	// (grouped) form needs only one transaction's worth; an unordered
	// log can force the recovery to hold much more — this is the cost
	// the mirror's reordering avoids.
	PeakBuffered int
	// WritesSkipped counts writes dropped by a stripe-watermark filter
	// during suffix replay: their group's serial was at or below the
	// watermark of the object's stripe, so the checkpoint already holds
	// them.
	WritesSkipped int
}

// Recover replays a stored redo log into db in a single pass: write
// records are buffered per transaction and applied when the transaction's
// commit record is seen; transactions with no commit record are
// discarded. The log is expected in the stored format (groups in
// validation order), which is exactly why the mirror reorders before
// storing — but buffering per transaction makes the pass robust to
// interleaved groups too.
//
// A truncated or corrupt tail ends the pass cleanly (Truncated is set);
// any other read error is returned.
func Recover(r io.Reader, db *store.Store) (RecoverStats, error) {
	return RecoverSuffix(r, db, nil)
}

// RecoverSuffix is Recover with a fuzzy-checkpoint watermark filter: a
// committed write is applied only if its group's serial exceeds the
// watermark of the stripe its object lives in (wm nil replays
// everything). Commit records below every watermark still advance
// LastSerial, so the controller reseeds past serials the checkpoint
// already covers.
func RecoverSuffix(r io.Reader, db *store.Store, wm *StripeWatermarks) (RecoverStats, error) {
	var st RecoverStats
	buffered := 0
	pending := make(map[uint64][]*Record)
	for {
		rec, err := Decode(r)
		if err != nil {
			switch {
			case err == io.EOF:
				st.Discarded = len(pending)
				return st, nil
			case err == io.ErrUnexpectedEOF || errors.Is(err, ErrCorrupt):
				st.Truncated = true
				st.Discarded = len(pending)
				return st, nil
			default:
				return st, err
			}
		}
		switch rec.Type {
		case TypeWrite, TypeDelete:
			pending[uint64(rec.TxnID)] = append(pending[uint64(rec.TxnID)], rec)
			buffered++
			if buffered > st.PeakBuffered {
				st.PeakBuffered = buffered
			}
		case TypeAbort:
			buffered -= len(pending[uint64(rec.TxnID)])
			delete(pending, uint64(rec.TxnID))
		case TypeCommit:
			for _, w := range pending[uint64(rec.TxnID)] {
				// A transient-mode log may hold write-write conflicting
				// groups out of timestamp order (workers append after
				// validation); keep the version with the larger commit
				// timestamp. Tombstones carry their own timestamps so
				// older writes cannot resurrect deleted objects.
				if wm != nil && rec.SerialOrder <= wm.For(w.ObjectID) {
					st.WritesSkipped++
					continue
				}
				if w.Type != TypeDelete {
					if _, wts, ok := db.Timestamps(w.ObjectID); ok && wts > rec.CommitTS {
						continue
					}
				}
				applyRecord(db, w, rec.CommitTS, rec.SerialOrder)
				st.WritesApplied++
			}
			buffered -= len(pending[uint64(rec.TxnID)])
			delete(pending, uint64(rec.TxnID))
			st.Applied++
			if rec.SerialOrder > st.LastSerial {
				st.LastSerial = rec.SerialOrder
			}
		case TypeHeartbeat:
			// ignore
		}
	}
}

// applyRecord installs one replayed write or delete record as committed
// at (commitTS, serial).
func applyRecord(db *store.Store, w *Record, commitTS, serial uint64) {
	op := [1]store.Op{{ID: w.ObjectID, Value: w.AfterImage, Delete: w.Type == TypeDelete, Serial: serial}}
	db.ApplyGroup(op[:], commitTS)
}

// checkpointTxnID marks checkpoint records; it can never collide with a
// real transaction id because ids start at 1.
const checkpointTxnID = 0

// WriteCheckpoint serializes a database snapshot to w in log-record
// format: one Write record per object followed by a Commit record whose
// SerialOrder is the validation order the log tail resumes from.
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

// ReadCheckpoint parses a checkpoint written by WriteCheckpoint and
// returns the snapshot along with the validation order to resume the log
// from.
func ReadCheckpoint(r io.Reader) ([]store.Record, uint64, error) {
	var snap []store.Record
	for {
		rec, err := Decode(r)
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, ErrCorrupt) {
				return nil, 0, ErrIncompleteCheckpoint
			}
			return nil, 0, err
		}
		switch rec.Type {
		case TypeWrite:
			snap = append(snap, store.Record{ID: rec.ObjectID, Value: rec.AfterImage, WriteTS: rec.CommitTS})
		case TypeCommit:
			return snap, rec.SerialOrder, nil
		default:
			return nil, 0, ErrCorrupt
		}
	}
}
