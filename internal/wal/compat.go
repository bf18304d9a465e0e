package wal

import "repro/internal/store"

// Reorderer groups decoded records: the writes since the last commit,
// closed by it. It serves the per-record decode timing of the layer
// benchmark (wal.decode_reorder_ns, DecodeBytes + Add per record); the
// stored log is read a whole group at a time (NextGroup, ReadGroup).
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
type Reorderer struct{ open []*Record }

// NewReorderer returns an empty grouping buffer; the serial is ignored.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func NewReorderer(uint64) *Reorderer { return &Reorderer{} }

// Add feeds one record and returns the group its commit record completes.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (r *Reorderer) Add(rec *Record) ([]*Group, error) {
	if rec.Type != TypeCommit {
		r.open = append(r.open, rec)
		return nil, nil
	}
	g := &Group{Writes: r.open, Commit: rec}
	r.open = nil
	return []*Group{g}, nil
}

// DefaultRecoverWorkers reports 1: replay runs on the caller's goroutine.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func DefaultRecoverWorkers() int { return 1 }

// ParallelApplier is a Replayer fed decoded groups. Apply encodes each
// group and hands the bytes to Replayer.Add, so the layer benchmark's
// wal.parallel_apply_ns times an encode plus the replay's decode, copy
// and apply.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
type ParallelApplier struct {
	*Replayer
	buf []byte
}

// NewParallelApplier returns a Replayer into db; workers and tsGuard are
// ignored.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func NewParallelApplier(db *store.Store, workers int, tsGuard bool) *ParallelApplier {
	return &ParallelApplier{Replayer: NewReplayer(db)}
}

// Apply applies one committed group.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (p *ParallelApplier) Apply(g *Group) {
	p.buf = g.AppendEncoded(p.buf[:0])
	p.Add(p.buf)
}

// Wait returns at once: Apply has applied its group before it returns.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (p *ParallelApplier) Wait() {}

// Close does nothing: the replayer holds no partial group.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (p *ParallelApplier) Close() {}

// DecodeBytes decodes exactly one record from b: DecodeNext, with any
// error, or bytes left over, reported as ErrCorrupt.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func DecodeBytes(b []byte) (*Record, error) {
	rec, n, err := DecodeNext(b)
	if err != nil || n != len(b) {
		return nil, ErrCorrupt
	}
	return rec, nil
}
