// Package logstore provides the stable-storage backends a RODAIN node
// writes its transaction log to: a real file, an in-memory store for
// tests (which models the synced/unsynced distinction of a crash), a
// null device for "logging disabled" configurations, and a delaying
// wrapper that emulates a slow disk on the commit path.
package logstore

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"sync"
	"sync/atomic"
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
	AppendBatch(chunks [][]byte) error
	// Sync forces all appended data to stable storage.
	Sync() error
	// Close syncs and releases the store.
	Close() error
}

// Stats reports I/O accounting for a store that supports it.
type Stats struct {
	BytesAppended uint64
	Syncs         uint64
}

// ErrClosed is returned for operations on a closed store.
var ErrClosed = errors.New("logstore: closed")

// SerialTruncator is implemented by stores that can drop a log prefix
// made redundant by a durable checkpoint: everything dropped must lie
// below the given commit serial. Data above the serial — which the
// checkpoint does not cover — survives.
type SerialTruncator interface {
	// TruncateBelow drops log data containing only groups whose commit
	// serial is ≤ serial, and returns the number of bytes dropped. It is
	// free to drop less than the maximum (truncation is an optimization;
	// keeping extra log only costs replay time), never more.
	TruncateBelow(serial uint64) (int, error)
}

// TruncateBelow drops the ≤ serial prefix of s if it supports serial
// truncation; it reports whether it did and how many bytes went away.
// A Delayed wrapper is unwrapped first: capability detection must see the
// real device, not the latency shim.
func TruncateBelow(s Store, serial uint64) (bool, int, error) {
	if d, ok := s.(*Delayed); ok {
		return TruncateBelow(d.Inner, serial)
	}
	t, ok := s.(SerialTruncator)
	if !ok {
		return false, 0, nil
	}
	n, err := t.TruncateBelow(serial)
	return true, n, err
}

// --- File -------------------------------------------------------------------

// File is a file-backed log store using buffered appends and fsync.
// The I/O counters are atomics so Stats never blocks behind the device:
// a monitoring read during a slow fsync (which holds mu for its whole
// duration) must not stall.
type File struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	closed bool

	bytesAppended atomic.Uint64
	syncs         atomic.Uint64
}

// OpenFile opens (creating, appending) the log file at path.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// Append implements Store.
func (s *File) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	n, err := s.w.Write(p)
	s.bytesAppended.Add(uint64(n))
	return err
}

// AppendBatch implements Store: every chunk goes into the write buffer
// under one lock acquisition.
func (s *File) AppendBatch(chunks [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	var total uint64
	for _, p := range chunks {
		n, err := s.w.Write(p)
		total += uint64(n)
		if err != nil {
			s.bytesAppended.Add(total)
			return err
		}
	}
	s.bytesAppended.Add(total)
	return nil
}

// Sync implements Store.
func (s *File) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	s.syncs.Add(1)
	return s.f.Sync()
}

// Close implements Store.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// Stats returns I/O accounting. It is lock-free: safe to call while an
// Append or a long device Sync is in flight.
func (s *File) Stats() Stats {
	return Stats{
		BytesAppended: s.bytesAppended.Load(),
		Syncs:         s.syncs.Load(),
	}
}

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

// Stats returns I/O accounting.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// TruncateBelow implements SerialTruncator by decoding the stored
// stream and cutting at the last group boundary before any commit above
// serial: the dropped prefix holds only commits the checkpoint covers,
// and no write whose commit lies beyond the cut. The synced marker
// shifts with the data so crash modeling stays exact.
func (m *Mem) TruncateBelow(serial uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	cut := 0
	open := make(map[uint64]int)
	r := bytes.NewReader(m.data)
	for {
		rec, err := wal.Decode(r)
		if err != nil {
			// Clean EOF, a partial tail record, or damage: stop scanning;
			// everything decoded so far determined the cut.
			break
		}
		switch rec.Type {
		case wal.TypeWrite, wal.TypeDelete:
			open[uint64(rec.TxnID)]++
		case wal.TypeAbort:
			delete(open, uint64(rec.TxnID))
		case wal.TypeCommit:
			if rec.SerialOrder > serial {
				// First uncovered group: the cut stands where it is.
				r = nil
			}
			delete(open, uint64(rec.TxnID))
		case wal.TypeHeartbeat:
			// no state
		}
		if r == nil {
			break
		}
		if len(open) == 0 {
			cut = len(m.data) - r.Len()
		}
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

// --- Null -------------------------------------------------------------------

// Null discards everything: the "logging disabled" configuration of the
// paper's optimal baseline.
type Null struct{}

// NewNull returns a discarding store.
func NewNull() Null { return Null{} }

// Append implements Store.
func (Null) Append([]byte) error { return nil }

// AppendBatch implements Store.
func (Null) AppendBatch([][]byte) error { return nil }

// Sync implements Store.
func (Null) Sync() error { return nil }

// Close implements Store.
func (Null) Close() error { return nil }

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
