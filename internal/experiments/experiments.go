// Package experiments regenerates every figure of the paper's
// experimental study (§4): the miss-ratio curves of Figures 2 and 3 via
// the discrete-event simulator, the takeover-vs-recovery availability
// comparison the section closes with, and the ablations DESIGN.md calls
// out (concurrency-control protocol, mirror reordering, overload manager,
// predictability, failover timeline).
//
// Each experiment returns a Result holding the same series the paper
// plots; absolute values belong to our calibrated cost model, the shape
// is what reproduces. The live system's throughput and per-layer costs
// are measured end to end by the benchmark module (benchmark/README.md),
// not here.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/occ"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options tune how heavy a run is.
type Options struct {
	// Reps is the number of seeded repetitions averaged per point
	// (the paper repeats every session at least 20 times).
	Reps int
	// Count is the number of transactions per session (paper: 10,000).
	Count int
	// DBSize is the number of objects (paper: 30,000).
	DBSize int
	// Seed is the base seed.
	Seed int64
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{Reps: 20, Count: 10000, DBSize: 30000, Seed: 1}
}

// QuickOptions is a cheaper configuration for tests and demos that
// preserves the shapes.
func QuickOptions() Options {
	return Options{Reps: 3, Count: 2500, DBSize: 10000, Seed: 1}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Reps <= 0 {
		o.Reps = d.Reps
	}
	if o.Count <= 0 {
		o.Count = d.Count
	}
	if o.DBSize <= 0 {
		o.DBSize = d.DBSize
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// Series is one plotted line.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is one regenerated figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Table renders the result in the row form the paper's figures report.
func (r *Result) Table() *metrics.Table {
	t := &metrics.Table{Title: fmt.Sprintf("%s — %s", r.ID, r.Title)}
	t.Header = append(t.Header, r.XLabel)
	for _, s := range r.Series {
		t.Header = append(t.Header, s.Name)
	}
	if len(r.Series) == 0 {
		return t
	}
	for i := range r.Series[0].X {
		row := []string{trimFloat(r.Series[0].X[i])}
		for _, s := range r.Series {
			row = append(row, metrics.Pct(s.Y[i]))
		}
		t.AddRow(row...)
	}
	return t
}

// WriteCSV writes the result as CSV: x, then one column per series.
func (r *Result) WriteCSV(w io.Writer) error {
	cols := []string{csvEscape(r.XLabel)}
	for _, s := range r.Series {
		cols = append(cols, csvEscape(s.Name))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	if len(r.Series) == 0 {
		return nil
	}
	for i := range r.Series[0].X {
		row := []string{trimFloat(r.Series[0].X[i])}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%.6f", s.Y[i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return strconv.Quote(s)
	}
	return s
}

// Fprint writes the table plus notes.
func (r *Result) Fprint(w io.Writer) error {
	if err := r.Table().Fprint(w); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// baseWorkload is the paper's test database and transaction mix.
func baseWorkload(o Options) workload.Config {
	cfg := workload.Default()
	cfg.Count = o.Count
	cfg.DBSize = o.DBSize
	cfg.Seed = o.Seed
	return cfg
}

// point runs one (mode, workload) configuration and averages the miss
// ratio over repetitions.
func point(o Options, wl workload.Config, mode core.LogMode, mirrorDisk bool) float64 {
	rs := sim.RunRepeated(sim.Config{
		Workload:   wl,
		LogMode:    mode,
		MirrorDisk: mirrorDisk,
	}, o.Reps)
	return sim.MeanMissRatio(rs)
}

// ArrivalRates is the x axis of the rate sweeps.
var ArrivalRates = []float64{50, 100, 150, 200, 250, 300, 350, 400, 450, 500}

// WriteFractions is the x axis of Fig 2(b).
var WriteFractions = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Fig2a reproduces Fig 2(a): miss ratio vs arrival rate at a 5% write
// ratio, normal mode (both nodes, logs shipped) vs transient mode
// (single node, true disk log writes).
func Fig2a(o Options) Result {
	o = o.withDefaults()
	r := Result{
		ID:     "fig2a",
		Title:  "normal (2 nodes) vs transient (1 node) mode, true log writes, write ratio 5%",
		XLabel: "arrival rate (txn/s)",
		YLabel: "miss ratio",
	}
	two := Series{Name: "2 nodes (ship)"}
	one := Series{Name: "1 node (disk)"}
	for _, rate := range ArrivalRates {
		wl := baseWorkload(o)
		wl.ArrivalRate = rate
		wl.WriteFraction = 0.05
		two.X = append(two.X, rate)
		two.Y = append(two.Y, point(o, wl, core.LogShip, true))
		one.X = append(one.X, rate)
		one.Y = append(one.Y, point(o, wl, core.LogDisk, false))
	}
	r.Series = []Series{two, one}
	r.Notes = append(r.Notes,
		"expected shape: the single node saturates on its log disk far below the two-node CPU knee (paper Fig 2a)")
	return r
}

// Fig2b reproduces Fig 2(b): miss ratio vs write fraction at 300 txn/s.
func Fig2b(o Options) Result {
	o = o.withDefaults()
	r := Result{
		ID:     "fig2b",
		Title:  "normal vs transient mode, true log writes, arrival rate 300 txn/s",
		XLabel: "write fraction",
		YLabel: "miss ratio",
	}
	two := Series{Name: "2 nodes (ship)"}
	one := Series{Name: "1 node (disk)"}
	for _, wf := range WriteFractions {
		wl := baseWorkload(o)
		wl.ArrivalRate = 300
		wl.WriteFraction = wf
		two.X = append(two.X, wf)
		two.Y = append(two.Y, point(o, wl, core.LogShip, true))
		one.X = append(one.X, wf)
		one.Y = append(one.Y, point(o, wl, core.LogDisk, false))
	}
	r.Series = []Series{two, one}
	r.Notes = append(r.Notes,
		"expected shape: the single-node curve is high at every write fraction — even read-only transactions flush a commit record (paper Fig 2b)")
	return r
}

// fig3 reproduces one panel of Fig 3: optimal (no logs) vs single node
// (logging, disk off) vs two nodes (shipping, mirror disk off).
func fig3(id string, o Options, writeFraction float64) Result {
	o = o.withDefaults()
	r := Result{
		ID:     id,
		Title:  fmt.Sprintf("no logs vs 1 node vs 2 nodes, disk writes off, write ratio %.0f%%", 100*writeFraction),
		XLabel: "arrival rate (txn/s)",
		YLabel: "miss ratio",
	}
	none := Series{Name: "No logs"}
	solo := Series{Name: "1 node"}
	pair := Series{Name: "2 nodes"}
	for _, rate := range ArrivalRates {
		wl := baseWorkload(o)
		wl.ArrivalRate = rate
		wl.WriteFraction = writeFraction
		none.X = append(none.X, rate)
		none.Y = append(none.Y, point(o, wl, core.LogNone, false))
		solo.X = append(solo.X, rate)
		solo.Y = append(solo.Y, point(o, wl, core.LogDiscard, false))
		pair.X = append(pair.X, rate)
		pair.Y = append(pair.Y, point(o, wl, core.LogShip, false))
	}
	r.Series = []Series{none, solo, pair}
	r.Notes = append(r.Notes,
		"expected shape: all curves saturate at 200-300 txn/s; gaps between them are small (log handling overhead is modest; paper Fig 3)")
	return r
}

// Fig3a is Fig 3(a): write ratio 0%.
func Fig3a(o Options) Result { return fig3("fig3a", o, 0.0) }

// Fig3b is Fig 3(b): write ratio 20%.
func Fig3b(o Options) Result { return fig3("fig3b", o, 0.2) }

// Fig3c is Fig 3(c): write ratio 80%.
func Fig3c(o Options) Result { return fig3("fig3c", o, 0.8) }

// ProtocolAblation compares the concurrency-control protocols under the
// contended mixed workload (DESIGN.md §8).
func ProtocolAblation(o Options) *metrics.Table {
	o = o.withDefaults()
	t := &metrics.Table{
		Title:  "protocol ablation — contended load (30-object hotspot, 60% writes, 30% non-RT)",
		Header: []string{"protocol", "committed", "miss", "restarts", "validations", "victim-restarts", "access-restarts"},
	}
	for _, k := range []occ.Kind{occ.DATI, occ.TI, occ.DA, occ.BC} {
		wl := workload.Config{
			ArrivalRate: 250, WriteFraction: 0.6, DBSize: 30,
			ReadsPerTxn: 4, WritesPerTxn: 2,
			ReadDeadline: 50e6, WriteDeadline: 150e6,
			ValueSize: 16, Count: o.Count, Seed: o.Seed, NonRTFraction: 0.3,
		}
		rs := sim.RunRepeated(sim.Config{
			Workload: wl, LogMode: core.LogNone, Protocol: k, NonRTReserve: 0.1,
		}, o.Reps)
		var committed, restarts, validations, victims, access uint64
		miss := 0.0
		for _, r := range rs {
			committed += r.Outcome.Committed
			restarts += r.Outcome.Restarts
			validations += r.OCC.Validations
			victims += r.OCC.VictimRestarts
			access += r.OCC.AccessRestarts
			miss += r.MissRatio
		}
		n := uint64(len(rs))
		t.AddRow(k.String(),
			fmt.Sprintf("%d", committed/n),
			metrics.Pct(miss/float64(len(rs))),
			fmt.Sprintf("%d", restarts/n),
			fmt.Sprintf("%d", validations/n),
			fmt.Sprintf("%d", victims/n),
			fmt.Sprintf("%d", access/n))
	}
	return t
}

// SortedIDs lists the available figure experiments.
func SortedIDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

var registry = map[string]func(Options) Result{
	"fig2a": Fig2a,
	"fig2b": Fig2b,
	"fig3a": Fig3a,
	"fig3b": Fig3b,
	"fig3c": Fig3c,
}

// Run executes the figure experiment with the given id.
func Run(id string, o Options) (Result, error) {
	f, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, SortedIDs())
	}
	return f(o), nil
}
