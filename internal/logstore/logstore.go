// Package logstore provides the stable-storage backends a RODAIN node
// writes its transaction log to: one file-backed log (Segmented; a
// single-file log is its one-segment case that never rolls), an
// in-memory store for tests (which models the synced/unsynced
// distinction of a crash), and a delaying wrapper that emulates a slow
// disk on the commit path.
package logstore

import (
	"errors"
	"sync"
	"time"

	"repro/internal/simtime"
	"repro/internal/wal"
)

// Store is an append-only log device. Append buffers data; Sync forces
// everything appended so far onto stable media. Implementations are safe
// for concurrent use.
type Store interface {
	// Append adds p to the log buffer. An implementation must not
	// retain p after it returns: callers reuse it (the group
	// committer's encode buffer, the mirror's pooled receive frame).
	Append(p []byte) error
	// AppendBatch adds every chunk to the log buffer, in order, as one
	// vectored operation: a group-commit cohort lands with one call (and
	// one lock acquisition / syscall batch) instead of N.
	//
	// Deprecated: benchmark compat, remove with ROADMAP item 6.
	AppendBatch(chunks [][]byte) error
	// Sync forces all appended data to stable storage.
	Sync() error
	// Close syncs and releases the store.
	Close() error
	// Stats reports the store's I/O accounting; it never blocks behind
	// the device.
	Stats() Stats
	// TruncateBelow drops log data made redundant by a durable
	// checkpoint: data holding only groups whose commit serial is ≤
	// serial. It returns the number of bytes dropped. It is free to drop
	// less than that (truncation is an optimization; keeping extra log
	// only costs replay time), never more: data above the serial, which
	// the checkpoint does not cover, survives.
	TruncateBelow(serial uint64) (int, error)
}

// Stats reports a store's I/O accounting.
type Stats struct {
	BytesAppended uint64
	Syncs         uint64
}

// ErrClosed is returned for operations on a closed store.
var ErrClosed = errors.New("logstore: closed")

// --- Mem --------------------------------------------------------------------

// Mem is an in-memory log store. It distinguishes appended-but-unsynced
// data from synced data so tests can model exactly what survives a
// crash.
type Mem struct {
	mu     sync.Mutex
	data   []byte
	synced int // bytes guaranteed on "stable media"
	stats  Stats
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Append implements Store.
func (m *Mem) Append(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.data = append(m.data, p...)
	m.stats.BytesAppended += uint64(len(p))
	return nil
}

// AppendBatch implements Store: all chunks land under one lock, so a
// concurrent Sync can never split a cohort.
func (m *Mem) AppendBatch(chunks [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, p := range chunks {
		m.data = append(m.data, p...)
		m.stats.BytesAppended += uint64(len(p))
	}
	return nil
}

// Sync implements Store.
func (m *Mem) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.synced = len(m.data)
	m.stats.Syncs++
	return nil
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.synced = len(m.data)
	m.closed = true
	return nil
}

// Bytes returns a copy of everything appended, synced or not.
func (m *Mem) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.data...)
}

// SyncedBytes returns a copy of the data that had been synced — what a
// recovery after a crash would find.
func (m *Mem) SyncedBytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.data[:m.synced]...)
}

// Stats implements Store.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// TruncateBelow implements Store: it walks the stored groups
// (wal.NextGroup) and cuts before the first one whose commit is above
// serial, so the dropped prefix holds only commits the checkpoint covers,
// and no write whose commit lies beyond the cut. A group the data ends
// inside, or damage, ends the walk too. The synced marker shifts with the
// data so crash modeling stays exact.
func (m *Mem) TruncateBelow(serial uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	cut := 0
	for {
		n, commit, err := wal.NextGroup(m.data[cut:])
		if err != nil || commit.SerialOrder > serial {
			break
		}
		cut += n
	}
	if cut == 0 {
		return 0, nil
	}
	m.data = append(m.data[:0], m.data[cut:]...)
	if m.synced -= cut; m.synced < 0 {
		m.synced = 0
	}
	return cut, nil
}

// --- Delayed ----------------------------------------------------------------

// Delayed wraps a Store and sleeps on every Sync, emulating the latency
// of a physical log disk on the commit critical path.
type Delayed struct {
	Inner Store
	// SyncDelay is added to every Sync call.
	SyncDelay time.Duration
	// Clock times the emulated device latency. Nil uses the shared wall
	// clock; a simtime.SimClock makes the emulated disk run on virtual
	// time.
	Clock simtime.Clock

	mu      sync.Mutex // serializes syncs like a single disk head
	pending int
}

// NewDelayed wraps inner with a per-sync latency.
func NewDelayed(inner Store, syncDelay time.Duration) *Delayed {
	return &Delayed{Inner: inner, SyncDelay: syncDelay}
}

// Append implements Store.
func (d *Delayed) Append(p []byte) error { return d.Inner.Append(p) }

// AppendBatch implements Store.
func (d *Delayed) AppendBatch(chunks [][]byte) error { return d.Inner.AppendBatch(chunks) }

// Sync implements Store. Concurrent Syncs serialize, as on one device.
func (d *Delayed) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	clock := d.Clock
	if clock == nil {
		clock = simtime.Wall
	}
	simtime.SleepOn(clock, d.SyncDelay)
	return d.Inner.Sync()
}

// Close implements Store.
func (d *Delayed) Close() error { return d.Inner.Close() }

// Stats implements Store.
func (d *Delayed) Stats() Stats { return d.Inner.Stats() }

// TruncateBelow implements Store.
func (d *Delayed) TruncateBelow(serial uint64) (int, error) { return d.Inner.TruncateBelow(serial) }
