package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyOptions keeps test runtime low while preserving shapes.
func tinyOptions() Options {
	return Options{Reps: 2, Count: 1500, DBSize: 5000, Seed: 1}
}

func seriesByName(t *testing.T, r Result, name string) Series {
	t.Helper()
	for _, s := range r.Series {
		if strings.Contains(s.Name, name) {
			return s
		}
	}
	t.Fatalf("series %q not found in %v", name, r.ID)
	return Series{}
}

func atRate(t *testing.T, s Series, rate float64) float64 {
	t.Helper()
	for i, x := range s.X {
		if x == rate {
			return s.Y[i]
		}
	}
	t.Fatalf("rate %v not in series", rate)
	return 0
}

func TestFig2aShape(t *testing.T) {
	r := Fig2a(tinyOptions())
	if len(r.Series) != 2 {
		t.Fatalf("series count = %d", len(r.Series))
	}
	two := seriesByName(t, r, "2 nodes")
	one := seriesByName(t, r, "1 node")

	// Below the knee both are near zero.
	if atRate(t, two, 100) > 0.05 || atRate(t, one, 100) > 0.15 {
		t.Fatalf("low-rate miss ratios: two=%.3f one=%.3f", atRate(t, two, 100), atRate(t, one, 100))
	}
	// At 200-250 tps the single node has saturated its disk, the pair
	// has not: the paper's headline gap.
	if atRate(t, one, 250)-atRate(t, two, 250) < 0.2 {
		t.Fatalf("no disk-vs-ship gap at 250 tps: one=%.3f two=%.3f",
			atRate(t, one, 250), atRate(t, two, 250))
	}
	// Both saturate eventually, and miss ratios are monotone-ish in rate.
	if atRate(t, two, 500) < 0.3 {
		t.Fatalf("two-node at 500 tps: %.3f", atRate(t, two, 500))
	}
}

func TestFig2bShape(t *testing.T) {
	r := Fig2b(tinyOptions())
	two := seriesByName(t, r, "2 nodes")
	one := seriesByName(t, r, "1 node")
	// The single node is badly saturated at every write fraction
	// (every commit flushes), the pair only moderately loaded at 300.
	for i := range one.X {
		if one.Y[i]-two.Y[i] < 0.1 {
			t.Fatalf("at write fraction %.1f: one=%.3f two=%.3f — gap missing",
				one.X[i], one.Y[i], two.Y[i])
		}
	}
	// Write-ratio effect on the pair is modest.
	if two.Y[len(two.Y)-1]-two.Y[0] > 0.45 {
		t.Fatalf("two-node write-ratio swing too large: %.3f → %.3f", two.Y[0], two.Y[len(two.Y)-1])
	}
}

func TestFig3Shape(t *testing.T) {
	r := Fig3b(tinyOptions())
	none := seriesByName(t, r, "No logs")
	solo := seriesByName(t, r, "1 node")
	pair := seriesByName(t, r, "2 nodes")
	// All three saturate between 200 and 300: miss at 200 small-ish,
	// miss at 400 large.
	for _, s := range []Series{none, solo, pair} {
		if atRate(t, s, 150) > 0.08 {
			t.Fatalf("%s at 150 tps: %.3f", s.Name, atRate(t, s, 150))
		}
		if atRate(t, s, 450) < 0.25 {
			t.Fatalf("%s at 450 tps: %.3f", s.Name, atRate(t, s, 450))
		}
	}
	// Ordering at saturation: No logs ≤ 1 node ≤ 2 nodes (small gaps).
	at := func(s Series) float64 { return atRate(t, s, 400) }
	if at(none) > at(solo)+0.03 || at(solo) > at(pair)+0.03 {
		t.Fatalf("fig3 ordering violated: none=%.3f solo=%.3f pair=%.3f",
			at(none), at(solo), at(pair))
	}
}

func TestRunRegistry(t *testing.T) {
	ids := SortedIDs()
	if len(ids) != 5 {
		t.Fatalf("ids = %v", ids)
	}
	if _, err := Run("nope", tinyOptions()); err == nil {
		t.Fatal("unknown id accepted")
	}
	r, err := Run("fig3a", Options{Reps: 1, Count: 300, DBSize: 1000})
	if err != nil || r.ID != "fig3a" {
		t.Fatalf("Run: %v %v", r.ID, err)
	}
}

func TestResultTableRendering(t *testing.T) {
	r := Result{
		ID: "x", Title: "t", XLabel: "rate",
		Series: []Series{
			{Name: "a", X: []float64{100, 200}, Y: []float64{0.1, 0.25}},
			{Name: "b", X: []float64{100, 200}, Y: []float64{0.2, 0.5}},
		},
		Notes: []string{"note"},
	}
	var b strings.Builder
	if err := r.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"rate", "a", "b", "10.0%", "50.0%", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	empty := Result{ID: "e"}
	if empty.Table() == nil {
		t.Fatal("empty table nil")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Reps != 20 || o.Count != 10000 || o.DBSize != 30000 {
		t.Fatalf("defaults = %+v", o)
	}
	q := QuickOptions()
	if q.Reps <= 0 || q.Count <= 0 {
		t.Fatalf("quick = %+v", q)
	}
}

func TestProtocolAblationTable(t *testing.T) {
	tab := ProtocolAblation(Options{Reps: 1, Count: 1200, DBSize: 5000, Seed: 3})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// DATI commits at least as much as BC.
	var dati, bc int
	for _, row := range tab.Rows {
		n, _ := strconv.Atoi(row[1])
		switch row[0] {
		case "OCC-DATI":
			dati = n
		case "OCC-BC":
			bc = n
		}
	}
	if dati < bc {
		t.Fatalf("DATI committed %d < BC %d", dati, bc)
	}
}

func TestTakeoverExperiment(t *testing.T) {
	rs, err := Takeover([]int{2000, 20000}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		if r.TakeoverTime <= 0 || r.RecoveryTime <= 0 {
			t.Fatalf("zero times: %+v", r)
		}
		if r.TakeoverTime < r.DetectionTime {
			t.Fatalf("takeover %v < detection %v", r.TakeoverTime, r.DetectionTime)
		}
	}
	// Recovery grows with database size; takeover does not (within a
	// generous factor — wall-clock noise).
	if rs[1].RecoveryTime < rs[0].RecoveryTime {
		t.Fatalf("recovery time did not grow with size: %v vs %v",
			rs[0].RecoveryTime, rs[1].RecoveryTime)
	}
	// At the larger size the mirror's takeover beats restart recovery —
	// the availability claim.
	if rs[1].TakeoverTime > rs[1].RecoveryTime {
		t.Fatalf("takeover (%v) slower than recovery (%v) at 20k objects",
			rs[1].TakeoverTime, rs[1].RecoveryTime)
	}
	var b strings.Builder
	if err := TakeoverTable(rs).Fprint(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "takeover") {
		t.Fatal("table missing header")
	}
}

func TestOverloadAblation(t *testing.T) {
	tab := OverloadAblation(Options{Reps: 1, Count: 2000, DBSize: 5000, Seed: 1})
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At 450 tps: with the manager on, denials dominate; with it off,
	// deadline misses dominate and the p95 response time is worse.
	var on, off []string
	for _, row := range tab.Rows {
		if row[0] == "450" {
			if row[1] == "on" {
				on = row
			} else {
				off = row
			}
		}
	}
	if on == nil || off == nil {
		t.Fatalf("450-tps rows missing: %v", tab.Rows)
	}
	onDenied, _ := strconv.Atoi(on[5])
	offDeadline, _ := strconv.Atoi(off[4])
	offDenied, _ := strconv.Atoi(off[5])
	if onDenied == 0 {
		t.Fatalf("manager on: no denials at 450 tps: %v", on)
	}
	if offDenied != 0 {
		t.Fatalf("manager off still denied admissions: %v", off)
	}
	if offDeadline == 0 {
		t.Fatalf("manager off: no deadline misses at 450 tps: %v", off)
	}
}

func TestPredictability(t *testing.T) {
	tab := Predictability(Options{Reps: 1, Count: 2000, DBSize: 5000, Seed: 1})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse := func(s string) time.Duration {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad duration %q", s)
		}
		return d
	}
	// Rows: ship, disk, discard, none. Disk p99 must exceed ship p99 by
	// at least the device latency; no-logs must be ~zero.
	shipP99 := parse(tab.Rows[0][3])
	diskP99 := parse(tab.Rows[1][3])
	noneMean := parse(tab.Rows[3][1])
	if diskP99 < shipP99+5*time.Millisecond {
		t.Fatalf("disk p99 %v not clearly above ship p99 %v", diskP99, shipP99)
	}
	if noneMean != 0 {
		t.Fatalf("no-logs mean commit wait = %v", noneMean)
	}
}

func TestWriteCSV(t *testing.T) {
	r := Result{
		ID: "x", XLabel: "rate, txn/s",
		Series: []Series{
			{Name: "a", X: []float64{100, 200}, Y: []float64{0.1, 0.25}},
			{Name: "b", X: []float64{100, 200}, Y: []float64{0.2, 0.5}},
		},
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, `"rate, txn/s",a,b`) {
		t.Fatalf("header = %q", out)
	}
	if !strings.Contains(out, "200,0.250000,0.500000") {
		t.Fatalf("rows = %q", out)
	}
	empty := Result{XLabel: "x"}
	var eb strings.Builder
	if err := empty.WriteCSV(&eb); err != nil {
		t.Fatal(err)
	}
}
