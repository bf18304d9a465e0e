package core

import (
	"io"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// CheckpointStats summarizes one fuzzy checkpoint cycle.
type CheckpointStats struct {
	// Serial is the validation order the checkpoint corresponds to once
	// the log suffix is replayed (the maximum stripe watermark).
	Serial uint64
	// Stripes is the store's stripe count.
	Stripes int
	// Copied is how many stripes were snapshotted this cycle.
	Copied int
	// Skipped is how many clean stripes reused their cached encoding.
	Skipped int
	// Records is the total record count written.
	Records int
	// Bytes is the checkpoint's encoded size.
	Bytes int
	// MinWatermark is the smallest stripe watermark — the serial below
	// which the log is redundant and may be truncated.
	MinWatermark uint64
	// Issued is the controller's last issued serial, read after the last
	// stripe copy: an upper bound on the serial of any write the image
	// holds. A watermark is only a lower bound, so the image is a
	// consistent prefix once the log suffix is replayed through Issued.
	Issued uint64
}

// stripeCache remembers one stripe's last encoding so a checkpoint cycle
// can skip stripes nothing mutated since the previous cycle.
type stripeCache struct {
	valid   bool
	epoch   uint64 // store epoch the encoding was copied at
	records int
	enc     []byte
}

// FuzzyCheckpoint writes a fuzzy, stripe-incremental checkpoint of the
// node's database to w and returns its statistics. It never freezes
// validation: each stripe is copied under only that stripe's read lock —
// commits proceed on the other stripes throughout — and is tagged with
// the controller's stable serial observed before the copy, which bounds
// exactly which logged groups the copy is guaranteed to contain. Stripes
// whose change epoch has not moved since the last cycle reuse their
// cached encoding and merely raise their watermark. The same stream is
// a joining mirror's state transfer (attachMirror), so a join is one
// checkpoint cycle in CheckpointBytes and CheckpointPauses.
//
// Correctness of the watermark: StableSerial is read before the stripe
// copy, so every group at or below it had completed its write phase —
// and therefore installed its effects in the stripe, happens-before
// ordered by the controller's mutex and the stripe lock — by the time
// the copy starts. Groups above the watermark may or may not be in the
// copy; replaying them from the log is idempotent (last-writer-wins
// timestamps, tombstones), so recovery replays each record's suffix from
// its stripe's watermark and converges on the live state.
func (n *Node) FuzzyCheckpoint(w io.Writer) (CheckpointStats, error) {
	n.mu.Lock()
	engine := n.engine
	n.mu.Unlock()
	if engine == nil {
		return CheckpointStats{}, ErrNotServing
	}
	ctl := engine.Controller()

	// One checkpoint cycle at a time: the cache is cycle state.
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	stripes := n.db.NumStripes()
	if len(n.ckptCache) != stripes {
		n.ckptCache = make([]stripeCache, stripes)
	}
	st := CheckpointStats{Stripes: stripes}
	cw := &countingWriter{w: w}
	marks := make([]uint64, stripes)
	for i := 0; i < stripes; i++ {
		c := &n.ckptCache[i]
		// Order matters: read the stable serial BEFORE looking at the
		// stripe. Reversed, a group could apply into the stripe and
		// retire between the two reads and the watermark would claim it.
		stable := ctl.StableSerial()
		if c.valid && n.db.StripeEpoch(i) == c.epoch {
			// Clean stripe: contents unchanged since the cached copy, so
			// the cache equals the live stripe right now — which makes
			// raising the watermark to the fresh stable serial sound.
			marks[i] = stable
			st.Skipped++
		} else {
			start := n.cfg.Clock.Now()
			recs, epoch := n.db.SnapshotStripe(i)
			n.ckptPause.Observe(n.cfg.Clock.Now().Sub(start))
			// Encoding happens outside the stripe lock: SnapshotStripe
			// borrows the after images under the store's immutable-value
			// contract.
			enc := wal.AppendCheckpointRecords(c.enc[:0], recs)
			*c = stripeCache{valid: true, epoch: epoch, records: len(recs), enc: enc}
			marks[i] = stable
			st.Copied++
		}
		if _, err := cw.Write(c.enc); err != nil {
			return st, err
		}
		st.Records += c.records
	}
	// A serial is issued before its write phase, so a group whose writes
	// any copy above holds is at or below this.
	st.Issued = ctl.LastSerial()
	if err := wal.WriteCheckpointTrailer(cw, marks); err != nil {
		return st, err
	}
	wm := wal.NewStripeWatermarks(marks)
	st.Serial = wm.Max()
	st.MinWatermark = wm.Min()
	st.Bytes = cw.n
	n.ckptBytes.Observe(st.Bytes)
	return st, nil
}

type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// CheckpointPauses is the distribution of per-stripe copy pauses — the
// longest a committer can stall behind the checkpointer on one stripe.
func (n *Node) CheckpointPauses() *metrics.Histogram { return &n.ckptPause }

// CheckpointBytes is the distribution of checkpoint sizes written.
func (n *Node) CheckpointBytes() *metrics.IntDist { return &n.ckptBytes }
