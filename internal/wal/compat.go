package wal

import "repro/internal/store"

// Reorderer groups records by transaction; it is the Replayer's grouping
// step without the apply.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
type Reorderer struct{ g grouper }

// NewReorderer returns an empty grouping buffer; the serial is ignored.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func NewReorderer(uint64) *Reorderer { return &Reorderer{} }

// Add feeds one record and returns the group its commit record completes.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (r *Reorderer) Add(rec *Record) ([]*Group, error) {
	g, err := r.g.add(rec)
	if g == nil {
		return nil, err
	}
	return []*Group{g}, nil
}

// DefaultRecoverWorkers reports 1: replay runs on the caller's goroutine.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func DefaultRecoverWorkers() int { return 1 }

// ParallelApplier is a Replayer fed whole groups.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
type ParallelApplier struct{ *Replayer }

// NewParallelApplier returns a Replayer into db; workers and tsGuard are
// ignored.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func NewParallelApplier(db *store.Store, workers int, tsGuard bool) *ParallelApplier {
	return &ParallelApplier{NewReplayer(db)}
}

// Apply applies one committed group.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (p *ParallelApplier) Apply(g *Group) { p.apply(g) }

// Wait returns at once: Apply has applied its group before it returns.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (p *ParallelApplier) Wait() {}

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
