// Command benchmark is the repository's one end-to-end and per-layer
// benchmark: it hosts a real RODAIN primary+mirror pair (or one
// disk-logging node) in this process, each behind the service front end
// on a loopback socket, drives it with request lines only, checks every
// reply against a reference model, crashes the primary and checks that
// everything acknowledged survived. See README.md.
//
// One run, as the driver calls it (the last line printed is the result):
//
//	bash benchmark/run.sh --workload mirrored_mix --seed 1 --seconds 20 --trace 0
//
// A full set (every workload, untraced and traced), repeated, summarized:
//
//	bash benchmark/run.sh -repeat 5 -out set.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// runSeconds is run_seconds of BENCHMARK.json: how long the driver lets
// one run measure, and what every rate-derived count is sized with.
const runSeconds = 20

// buildDir is the scratch directory in the checkout's root (run.sh
// starts the program there) for logs, checkpoints and trace files; run.sh
// keeps Go's caches and the binary in it too.
const buildDir = ".bench_build"

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print its result line; empty runs full sets (see -repeat)")
		seed     = flag.Int64("seed", 1, "the only source of randomness: same seed, same request stream")
		secs     = flag.Float64("seconds", runSeconds, "run length the phase counts are sized for")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "Chrome trace file of a traced run (default "+buildDir+"/trace-<workload>.json)")
		repeat   = flag.Int("repeat", 1, "without -workload: run this many full sets, seeds seed..seed+N-1, and summarize")
		out      = flag.String("out", "", "with -repeat: also write every run of the sets to this JSON file")
		compare  = flag.Bool("compare", false, "compare two set files (the two arguments) against each end-to-end metric's bound")
	)
	flag.Parse()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files"))
		}
		if err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	case *name == "":
		ok, err := runSets(os.Stdout, *repeat, *seed, *secs, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if *secs <= 0 || (*trace != 0 && *trace != 1) {
			fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
		}
		cfg := runConfig{w: w, seed: *seed, seconds: *secs, traced: *trace == 1, buildDir: buildDir, setups: setupRepeats, info: os.Stdout}
		if cfg.traced {
			cfg.setups = 1 // setup_s is an end-to-end metric: only an untraced run reports it
			cfg.traceOut = *traceOut
			if cfg.traceOut == "" {
				cfg.traceOut = filepath.Join(buildDir, "trace-"+w.Name+".json")
			}
		}
		res, err := runOne(cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res.only(cfg.traced))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1) // a wrong reply or lost update is never a result to compare
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
