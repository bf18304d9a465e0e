package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/txn"
)

func TestOutcomeTallies(t *testing.T) {
	o := NewOutcome()
	for i := 0; i < 10; i++ {
		o.Submit()
	}
	for i := 0; i < 7; i++ {
		o.Commit()
	}
	o.Abort(txn.DeadlineMiss)
	o.Abort(txn.OverloadDenied)
	o.Abort(txn.OverloadDenied)
	o.Restart()
	s := o.Snapshot()
	if s.Submitted != 10 || s.Committed != 7 || s.Missed != 3 || s.Restarts != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.ByReason[txn.OverloadDenied] != 2 {
		t.Fatalf("overload count = %d", s.ByReason[txn.OverloadDenied])
	}
	if got := s.MissRatio(); got != 0.3 {
		t.Fatalf("MissRatio = %v", got)
	}
	str := s.String()
	if !strings.Contains(str, "missed=3") || !strings.Contains(str, "overload=2") {
		t.Fatalf("String = %q", str)
	}
}

func TestMissRatioEmpty(t *testing.T) {
	var s Snapshot
	if s.MissRatio() != 0 {
		t.Fatal("empty snapshot should have zero miss ratio")
	}
}

func TestOutcomeConcurrent(t *testing.T) {
	o := NewOutcome()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				o.Submit()
				if i%2 == 0 {
					o.Commit()
				} else {
					o.Abort(txn.Conflict)
				}
			}
		}()
	}
	wg.Wait()
	s := o.Snapshot()
	if s.Submitted != 8000 || s.Committed != 4000 || s.Missed != 4000 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	samples := []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	}
	for _, s := range samples {
		h.Observe(s)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 100*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 15*time.Millisecond || mean > 25*time.Millisecond {
		t.Fatalf("Mean = %v", mean)
	}
	// The median upper bound must be within a bucket (≈41%) of 1ms but
	// certainly between 100µs and 10ms.
	med := h.Quantile(0.5)
	if med < 100*time.Microsecond || med > 10*time.Millisecond {
		t.Fatalf("median = %v", med)
	}
	p100 := h.Quantile(1.0)
	if p100 < 100*time.Millisecond/2 {
		t.Fatalf("p100 = %v", p100)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(0)                // below first bucket
	h.Observe(time.Minute)      // beyond last bucket
	h.Observe(-time.Nanosecond) // nonsense input: clamps to bucket 0
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
}

// TestHistogramConcurrentMatchesSequential fills one histogram from 8
// goroutines at once and another sequentially with the same samples:
// the lock-free cells must lose nothing, so every digest agrees exactly.
func TestHistogramConcurrentMatchesSequential(t *testing.T) {
	const observers = 8
	var samples []time.Duration
	for i := 0; i < 500; i++ {
		samples = append(samples, time.Duration(i*i*37+i)*time.Nanosecond)
	}
	samples = append(samples, 0, time.Minute, 3*time.Second)

	var seq, conc Histogram
	for g := 0; g < observers; g++ {
		for _, d := range samples {
			seq.Observe(d)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range samples {
				conc.Observe(d)
			}
		}()
	}
	wg.Wait()

	if want := uint64(observers * len(samples)); conc.Count() != want || seq.Count() != want {
		t.Fatalf("Count: concurrent %d, sequential %d, want %d", conc.Count(), seq.Count(), want)
	}
	if conc.Max() != seq.Max() || conc.Max() != time.Minute {
		t.Fatalf("Max: concurrent %v, sequential %v", conc.Max(), seq.Max())
	}
	if conc.Mean() != seq.Mean() {
		t.Fatalf("Mean: concurrent %v, sequential %v", conc.Mean(), seq.Mean())
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if c, s := conc.Quantile(q), seq.Quantile(q); c != s {
			t.Fatalf("Quantile(%v): concurrent %v, sequential %v", q, c, s)
		}
	}
	if c, s := conc.Summary(), seq.Summary(); c != s {
		t.Fatalf("Summary: concurrent %+v, sequential %+v", c, s)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:  "fig 2(a)",
		Header: []string{"rate", "2 nodes", "1 node"},
	}
	tab.AddRow("100", "1.0%", "12.0%")
	tab.AddRow("300", "25.5%", "80.1%")
	var b strings.Builder
	if err := tab.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fig 2(a)", "rate", "2 nodes", "80.1%", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}

func TestPct(t *testing.T) {
	if Pct(0.255) != "25.5%" {
		t.Fatalf("Pct = %q", Pct(0.255))
	}
}

func TestIntDistBasics(t *testing.T) {
	var d IntDist
	if d.Count() != 0 || d.Mean() != 0 || d.Max() != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("empty IntDist not zero")
	}
	for _, v := range []int{1, 1, 2, 4, 8, 64} {
		d.Observe(v)
	}
	if d.Count() != 6 {
		t.Fatalf("Count = %d", d.Count())
	}
	if d.Max() != 64 {
		t.Fatalf("Max = %d", d.Max())
	}
	if got, want := d.Mean(), 80.0/6.0; got < want-0.001 || got > want+0.001 {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
	// Median of {1,1,2,4,8,64} falls in the [2,4) bucket; the reported
	// bound is that bucket's inclusive upper edge.
	if q := d.Quantile(0.5); q < 2 || q > 4 {
		t.Fatalf("Quantile(0.5) = %d, want within [2,4]", q)
	}
	if q := d.Quantile(1); q != 64 {
		t.Fatalf("Quantile(1) = %d, want 64 (capped at max)", q)
	}
	// Values below 1 count as 1 so a cohort of "zero" cannot hide.
	d.Observe(0)
	d.Observe(-3)
	if d.Count() != 8 || d.Quantile(0.01) != 1 {
		t.Fatalf("low-value clamp: count=%d q01=%d", d.Count(), d.Quantile(0.01))
	}
}

func TestIntDistConcurrent(t *testing.T) {
	var d IntDist
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				d.Observe(w + 1)
			}
		}()
	}
	wg.Wait()
	if d.Count() != 4000 {
		t.Fatalf("Count = %d, want 4000", d.Count())
	}
	if d.Max() != 4 {
		t.Fatalf("Max = %d, want 4", d.Max())
	}
}
