// Package metrics collects the measurements the paper's experimental
// study reports: transaction miss ratio with its abort-reason breakdown,
// and commit-latency distributions, plus small table/series formatting
// helpers used by the experiment harness.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/txn"
)

// Outcome tallies transaction completions. The miss ratio is the
// fraction of transactions that did not commit: deadline expiry,
// concurrency-control conflict that exhausted its chances, or admission
// denial by the overload manager — the paper's three abort classes.
type Outcome struct {
	mu sync.Mutex

	Submitted uint64
	Committed uint64
	// LateCommits counts soft-deadline transactions that committed past
	// their deadline: complete, but missed.
	LateCommits uint64
	Aborts      map[txn.AbortReason]uint64
	Restarts    uint64 // concurrency-control restarts that later succeeded or failed
}

// NewOutcome returns an empty tally.
func NewOutcome() *Outcome {
	return &Outcome{Aborts: make(map[txn.AbortReason]uint64)}
}

// Submit counts an arriving transaction.
func (o *Outcome) Submit() {
	o.mu.Lock()
	o.Submitted++
	o.mu.Unlock()
}

// Commit counts a successful commit.
func (o *Outcome) Commit() {
	o.mu.Lock()
	o.Committed++
	o.mu.Unlock()
}

// CommitLate counts a successful commit that finished past a soft
// deadline.
func (o *Outcome) CommitLate() {
	o.mu.Lock()
	o.Committed++
	o.LateCommits++
	o.mu.Unlock()
}

// Abort counts a terminal abort with its reason.
func (o *Outcome) Abort(reason txn.AbortReason) {
	o.mu.Lock()
	o.Aborts[reason]++
	o.mu.Unlock()
}

// Restart counts a concurrency-control restart (not terminal).
func (o *Outcome) Restart() {
	o.mu.Lock()
	o.Restarts++
	o.mu.Unlock()
}

// Snapshot is a consistent copy of the tallies.
type Snapshot struct {
	Submitted   uint64
	Committed   uint64
	LateCommits uint64
	Missed      uint64
	Restarts    uint64
	ByReason    map[txn.AbortReason]uint64
}

// Snapshot returns a copy of the current tallies.
func (o *Outcome) Snapshot() Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := Snapshot{
		Submitted:   o.Submitted,
		Committed:   o.Committed,
		LateCommits: o.LateCommits,
		Restarts:    o.Restarts,
		ByReason:    make(map[txn.AbortReason]uint64, len(o.Aborts)),
	}
	for r, n := range o.Aborts {
		s.ByReason[r] = n
		s.Missed += n
	}
	s.Missed += o.LateCommits
	return s
}

// MissRatio reports missed/submitted, the paper's headline metric.
func (s Snapshot) MissRatio() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Submitted)
}

func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "submitted=%d committed=%d missed=%d (%.1f%%)",
		s.Submitted, s.Committed, s.Missed, 100*s.MissRatio())
	reasons := make([]txn.AbortReason, 0, len(s.ByReason))
	for r := range s.ByReason {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	for _, r := range reasons {
		fmt.Fprintf(&b, " %s=%d", r, s.ByReason[r])
	}
	return b.String()
}

// --- Histogram ---------------------------------------------------------------

// Histogram is a latency histogram with logarithmic buckets from 1 µs to
// ~17 s, safe for concurrent use. Every cell is an atomic, so Observe
// costs a few uncontended atomic adds and never serializes observers —
// fit for instrumenting paths that are themselves lock-free, like the
// store's versioned read path. The zero value is ready to use.
type Histogram struct {
	buckets [bucketCount]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // total nanoseconds across samples
	max     atomic.Int64 // largest sample in nanoseconds (CAS-max)
}

const bucketCount = 48 // 1µs * 2^(i/2): covers to beyond 10s

// bucketFor maps d to a bucket index (half-powers of two above 1µs).
func bucketFor(d time.Duration) int {
	us := float64(d) / float64(time.Microsecond)
	if us < 1 {
		return 0
	}
	i := int(2 * math.Log2(us))
	if i < 0 {
		i = 0
	}
	if i >= bucketCount {
		i = bucketCount - 1
	}
	return i
}

// boundFor is the upper duration bound of bucket i.
func boundFor(i int) time.Duration {
	return time.Duration(math.Pow(2, float64(i+1)/2) * float64(time.Microsecond))
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean reports the mean sample.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Max reports the largest sample.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile reports an upper bound for the q-quantile (0 < q ≤ 1).
func (h *Histogram) Quantile(q float64) time.Duration {
	c := h.load()
	return c.quantile(q)
}

// HistogramSummary is a point-in-time digest of a latency histogram:
// the copyable form embedded in stats snapshots.
type HistogramSummary struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summary digests the histogram. Concurrent observers may land between
// the field loads, so the digest is only approximately consistent —
// each quantity is individually correct to within the in-flight
// samples, which is all a monitoring snapshot needs.
func (h *Histogram) Summary() HistogramSummary {
	c := h.load()
	s := HistogramSummary{Count: c.total, Max: c.max}
	if c.total == 0 {
		return s
	}
	s.Mean = time.Duration(h.sum.Load() / int64(c.total))
	s.P50 = c.quantile(0.50)
	s.P95 = c.quantile(0.95)
	s.P99 = c.quantile(0.99)
	return s
}

// histCounts is one load of a Histogram's buckets: the quantile walk
// runs over a copy whose total matches its cells, so a concurrent
// Observe can never make the walk miss its target.
type histCounts struct {
	buckets [bucketCount]uint64
	total   uint64
	max     time.Duration
}

func (h *Histogram) load() histCounts {
	c := histCounts{max: time.Duration(h.max.Load())}
	for i := range h.buckets {
		c.buckets[i] = h.buckets[i].Load()
		c.total += c.buckets[i]
	}
	return c
}

func (c *histCounts) quantile(q float64) time.Duration {
	if c.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(c.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range c.buckets {
		cum += n
		if cum >= target {
			// The bucket bound can overshoot the true maximum; never
			// report a quantile above the largest observed sample.
			if b := boundFor(i); b < c.max {
				return b
			}
			return c.max
		}
	}
	return c.max
}

// --- IntDist -----------------------------------------------------------------

// IntDist is a concurrency-safe distribution of small positive integers
// — group-commit cohort sizes, batch lengths — with power-of-two
// buckets. It is the integer sibling of Histogram.
type IntDist struct {
	mu      sync.Mutex
	buckets [intDistBuckets]uint64 // bucket i holds values in [2^i, 2^(i+1))
	count   uint64
	sum     uint64
	max     uint64
}

const intDistBuckets = 32

func intBucketFor(v uint64) int {
	if v == 0 {
		return 0
	}
	i := 0
	for v > 1 {
		v >>= 1
		i++
	}
	if i >= intDistBuckets {
		i = intDistBuckets - 1
	}
	return i
}

// Observe records one sample; values below 1 count as 1.
func (d *IntDist) Observe(v int) {
	u := uint64(1)
	if v > 1 {
		u = uint64(v)
	}
	d.mu.Lock()
	d.buckets[intBucketFor(u)]++
	d.count++
	d.sum += u
	if u > d.max {
		d.max = u
	}
	d.mu.Unlock()
}

// Count reports the number of samples.
func (d *IntDist) Count() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Mean reports the mean sample.
func (d *IntDist) Mean() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// Max reports the largest sample.
func (d *IntDist) Max() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.max
}

// Quantile reports an upper bound for the q-quantile (0 < q ≤ 1),
// capped at the largest observed sample.
func (d *IntDist) Quantile(q float64) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(d.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range d.buckets {
		cum += n
		if cum >= target {
			bound := uint64(1) << uint(i+1)
			bound-- // inclusive upper edge of the bucket
			if bound > d.max {
				return d.max
			}
			return bound
		}
	}
	return d.max
}

// --- Table -------------------------------------------------------------------

// Table is a simple aligned-text table used to print the experiment
// series in the shape the paper's figures report.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table, aligned, to w.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// Pct formats a ratio as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
