package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/wal"
)

// Tracing. Every span is recorded from this directory, around a call into
// a layer's public functions; nothing inside the product is touched.
// Spans stay in memory while the pass runs and are written in Chrome
// trace-event format (chrome://tracing, Perfetto) when the run ends.

// span is one timed call. id groups the spans of one request (or one
// cohort); parent names the span that caused it.
type span struct {
	name   string
	track  string // one row of the trace viewer: a connection, a socket side, a device
	start  int64  // ns since the recorder's epoch
	dur    int64
	id     int64
	parent string
}

// recorder collects the low-rate spans (per cohort, per sync, per
// checkpoint). Per-transaction timings are kept in flat arrays by the
// passes themselves and turned into spans only when the file is written.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// durations returns the lengths of every span called name.
func (r *recorder) durations(name string) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int64
	for i := range r.spans {
		if r.spans[i].name == name {
			out = append(out, r.spans[i].dur)
		}
	}
	return out
}

// traceEvent is one Chrome trace "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// maxTraceEvents bounds the trace file; see traceSpans.
const maxTraceEvents = 60000

// writeTrace writes spans as {"traceEvents": [...]}. Tracks become
// thread rows, named by metadata events.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A bufio.Writer keeps its first error and Flush returns it, so the
	// writes in between need no checks of their own.
	w := bufio.NewWriter(f)
	w.WriteString("{\"traceEvents\":[\n")
	sep := ""
	emit := func(ev traceEvent) {
		b, _ := json.Marshal(ev) // strings, numbers and a string-keyed map: cannot fail
		w.WriteString(sep)
		w.Write(b)
		sep = ",\n"
	}
	tids := map[string]int{}
	for i := range spans {
		s := &spans[i]
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			emit(traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.track}})
		}
		ev := traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			Args: map[string]any{"id": s.id},
		}
		if s.parent != "" {
			ev.Args["parent"] = s.parent
		}
		emit(ev)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- timed wrappers ----------------------------------------------------------

// timedRW times one side of the replication socket, under transport.New.
// On the mirror side it also measures how long a received batch waits for
// its acknowledgment: from the first read that returned data after the
// last write, to the end of the next write.
type timedRW struct {
	inner io.ReadWriteCloser
	rec   *recorder
	side  string // "primary" or "mirror"

	writes, wbytes atomic.Uint64
	reads          atomic.Uint64

	// Only the reading goroutine sets readAt and only the writing one
	// clears it; on the mirror both are the session goroutine.
	readAt atomic.Int64
}

// Read records only the moment data arrived: a read blocks until the
// peer sends, so its length says nothing about this side.
func (t *timedRW) Read(p []byte) (int, error) {
	n, err := t.inner.Read(p)
	if n > 0 {
		now := t.rec.now()
		t.readAt.CompareAndSwap(0, now)
		t.rec.add(span{name: "transport.read", track: "socket " + t.side, start: now, id: int64(t.reads.Add(1))})
	}
	return n, err
}

func (t *timedRW) Write(p []byte) (int, error) {
	start := t.rec.now()
	n, err := t.inner.Write(p)
	end := t.rec.now()
	id := int64(t.writes.Add(1))
	t.wbytes.Add(uint64(n))
	t.rec.add(span{name: "transport.write", track: "socket " + t.side, start: start, dur: end - start, id: id})
	if at := t.readAt.Swap(0); at != 0 && t.side == "mirror" {
		t.rec.add(span{name: "core.mirror.ack", track: "mirror session", start: at, dur: end - at, id: id})
	}
	return n, err
}

func (t *timedRW) Close() error { return t.inner.Close() }

// SetReadDeadline keeps the watchdog deadlines of transport.Conn working
// through the wrapper.
func (t *timedRW) SetReadDeadline(d time.Time) error {
	if c, ok := t.inner.(interface{ SetReadDeadline(time.Time) error }); ok {
		return c.SetReadDeadline(d)
	}
	return nil
}

// timedStore times a log device and counts what reaches it. It passes
// the optional capabilities of the wrapped store through (Stats for the
// checkpoint trigger, TruncateBelow for log truncation), because the
// node detects them by type assertion.
type timedStore struct {
	inner logstore.Store
	seg   *logstore.Segmented // inner, when it is a segmented store
	rec   *recorder
	// name prefixes the span names and names the trace row: "logstore"
	// for the device on the commit path, "core.mirror.log" for the
	// mirror's asynchronously written one.
	name string

	appends, bytes, syncs atomic.Uint64
	segmentsReclaimed     atomic.Uint64
}

// timed runs one call into the device and records its span.
func (t *timedStore) timed(op string, count *atomic.Uint64, call func() error) error {
	start := t.rec.now()
	err := call()
	t.rec.add(span{name: t.name + op, track: t.name, start: start, dur: t.rec.now() - start, id: int64(count.Add(1))})
	return err
}

func (t *timedStore) Append(p []byte) error {
	t.bytes.Add(uint64(len(p)))
	return t.timed(".append", &t.appends, func() error { return t.inner.Append(p) })
}

func (t *timedStore) AppendBatch(chunks [][]byte) error {
	for _, c := range chunks {
		t.bytes.Add(uint64(len(c)))
	}
	return t.timed(".append", &t.appends, func() error { return t.inner.AppendBatch(chunks) })
}

func (t *timedStore) Sync() error {
	return t.timed(".sync", &t.syncs, t.inner.Sync)
}

func (t *timedStore) Close() error { return t.inner.Close() }

func (t *timedStore) Stats() logstore.Stats {
	return logstore.Stats{BytesAppended: t.bytes.Load(), Syncs: t.syncs.Load()}
}

func (t *timedStore) TruncateBelow(serial uint64) (int, error) {
	if t.seg == nil {
		return 0, nil
	}
	before := len(t.seg.Segments())
	n, err := t.seg.TruncateBelow(serial)
	t.segmentsReclaimed.Add(uint64(before - len(t.seg.Segments())))
	return n, err
}

// timedCommitter times the commit step of the transaction pipeline: the
// wait for the mirror's acknowledgment, or for the group fsync.
type timedCommitter struct {
	inner core.Committer
	rec   *recorder

	mu    sync.Mutex
	waits []commitWait
}

type commitWait struct {
	txn        uint64
	start, dur int64
}

func (t *timedCommitter) Commit(g *wal.Group) error {
	start := t.rec.now()
	err := t.inner.Commit(g)
	dur := t.rec.now() - start
	t.mu.Lock()
	t.waits = append(t.waits, commitWait{txn: uint64(g.Commit.TxnID), start: start, dur: dur})
	t.mu.Unlock()
	return err
}

func (t *timedCommitter) Close() error { return t.inner.Close() }
