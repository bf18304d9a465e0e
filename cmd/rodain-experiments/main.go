// Command rodain-experiments regenerates the paper's experimental study:
// every panel of Figures 2 and 3 (miss-ratio curves over the simulated
// node pair), the takeover-vs-recovery availability comparison, and the
// design ablations.
//
//	rodain-experiments -fig all            # the full study (paper-scale)
//	rodain-experiments -fig 2a -quick      # one figure, cheap settings
//	rodain-experiments -fig takeover
//	rodain-experiments -fig ablations
//
// Throughput and per-layer costs of the live system are the benchmark
// module's job (bash benchmark/run.sh), not this command's.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "experiment: all, 2a, 2b, 3a, 3b, 3c, takeover, ablations, timeline")
		quick  = flag.Bool("quick", false, "cheap settings (fewer repetitions and transactions)")
		reps   = flag.Int("reps", 0, "override repetitions per point")
		count  = flag.Int("count", 0, "override transactions per session")
		csvDir = flag.String("csv", "", "also write each figure's series as <dir>/<id>.csv")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *reps > 0 {
		opts.Reps = *reps
	}
	if *count > 0 {
		opts.Count = *count
	}

	ids := map[string]string{"2a": "fig2a", "2b": "fig2b", "3a": "fig3a", "3b": "fig3b", "3c": "fig3c"}
	want := strings.ToLower(*fig)

	runFigure := func(id string) {
		start := time.Now()
		r, err := experiments.Run(id, opts)
		if err != nil {
			log.Fatal(err)
		}
		if err := r.Fprint(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				log.Fatal(err)
			}
			f, err := os.Create(filepath.Join(*csvDir, r.ID+".csv"))
			if err != nil {
				log.Fatal(err)
			}
			if err := r.WriteCSV(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("  (%s in %v, %d reps × %d txns)\n\n", id, time.Since(start).Round(time.Second), opts.Reps, opts.Count)
	}

	runTakeover := func() {
		sizes := []int{10000, 30000, 100000}
		tail := 2000
		if *quick {
			sizes = []int{5000, 20000}
			tail = 500
		}
		rs, err := experiments.Takeover(sizes, tail)
		if err != nil {
			log.Fatal(err)
		}
		experiments.TakeoverTable(rs).Fprint(os.Stdout)
		fmt.Println()
	}

	runAblations := func() {
		experiments.ProtocolAblation(opts).Fprint(os.Stdout)
		fmt.Println()
		experiments.OverloadAblation(opts).Fprint(os.Stdout)
		fmt.Println()
		experiments.Predictability(opts).Fprint(os.Stdout)
		fmt.Println()
	}

	runTimeline := func() {
		experiments.FailoverTimeline(opts, 180, 5*time.Second).Fprint(os.Stdout)
		fmt.Println()
	}

	switch want {
	case "all":
		for _, short := range []string{"2a", "2b", "3a", "3b", "3c"} {
			runFigure(ids[short])
		}
		runTakeover()
		runAblations()
		runTimeline()
	case "takeover":
		runTakeover()
	case "ablations", "ablation":
		runAblations()
	case "timeline", "failover":
		runTimeline()
	default:
		id, ok := ids[want]
		if !ok {
			id = want // allow full ids like fig2a
		}
		runFigure(id)
	}
}
