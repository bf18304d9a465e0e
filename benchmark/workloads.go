package main

import "math"

// The load shape every workload shares. None of these is derived at run
// time: a later commit must be measured with exactly the inputs the seed
// commit was.
const (
	dbSize        = 30000 // the paper's number-translation database
	deadlineMs    = 50    // the paper's firm deadline: a later reply is a client.deadline_misses
	sessionMs     = 10000 // sent as DEADLINE 10000, so that no stall of the host makes the server answer MISS
	maxConns      = 4     // connections = min(nproc, maxConns)
	openWindow    = 16    // in-flight cap per connection, open loop
	closedDepth   = 8     // pipeline depth per connection, closed loop
	warmRequests  = 2000  // discarded warm-up, at full scale
	probeRequests = 4000  // depth-1 closed loop of the traced run, at full scale
	engineWorkers = 2     // rodaind's -workers default
	setupRepeats  = 11    // set-ups per run; setup_s is their median
	nominalSecs   = 10    // --seconds at which warm-up and probe run at full scale

	// Shares of --seconds the two timed phases are sized to fill on the
	// seed commit. The counts they produce are fixed inputs: a faster
	// commit finishes the closed loop sooner, it is not given more work.
	openShare   = 0.35
	closedShare = 0.45
)

// workloadDef is one traffic mix. OpenRate is offered load; ClosedRate is
// only the multiplier that sizes the closed-loop request count (about
// what the seed commit sustains on a 2-vCPU 2.1 GHz Xeon), so that phase
// takes about closedShare of the run there.
type workloadDef struct {
	Name          string
	Pair          bool // primary + mirror; false = one DurDisk node with a file log
	WriteFraction float64
	OpenRate      float64
	ClosedRate    float64
	Why           string
}

// Open-loop rates sit at about a third of the seed commit's worst-case
// capacity on that host (capacity on update workloads falls as commits
// accumulate; see README "pickTimestamp drift").
var workloads = []workloadDef{
	{
		Name: "mirrored_mix", Pair: true, WriteFraction: 0.2,
		OpenRate: 6000, ClosedRate: 25000,
		Why: "Paper's normal mode: 80% TRANSLATE / 20% REROUTE on a primary+mirror pair; reads share connections with updates, so the update barrier and store copy-on-write show up as read cost.",
	},
	{
		Name: "mirrored_update", Pair: true, WriteFraction: 1,
		OpenRate: 1000, ClosedRate: 5000,
		Why: "100% REROUTE on a pair: occ ticket, wal encode, shipper cohort, transport and mirror ack do all the work; the read fast path is bypassed.",
	},
	{
		Name: "transient_update", Pair: false, WriteFraction: 1,
		OpenRate: 500, ClosedRate: 1400,
		Why: "100% REROUTE on one node logging to disk with real fsync: the paper's comparison point; group commit, segmented log and checkpoints work, shipper/transport/mirror are bypassed.",
	},
	{
		Name: "readonly_translate", Pair: true, WriteFraction: 0,
		OpenRate: 20000, ClosedRate: 150000,
		Why: "100% TRANSLATE on a pair: front end, lock-free store reads and the occ read-only fast path only; no serial, log byte or ship, so commit-path changes predict no change here.",
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// phase indexes the consecutive parts of one run's request stream.
type phase int

const (
	phaseWarm   phase = iota // closed loop, discarded
	phaseOpen                // open loop at OpenRate: client.* latency, client.deadline_misses
	phaseClosed              // closed loop, depth closedDepth: peak_tps, busy_lat_*
	phaseProbe               // closed loop, depth 1: traced runs only
	numPhases
)

var phaseNames = [numPhases]string{"warm", "open", "closed", "probe"}

// counts sizes the phases for a run of the given length.
func (w *workloadDef) counts(seconds float64) [numPhases]int {
	scale := math.Min(1, seconds/nominalSecs)
	n := func(v float64) int {
		if v < 8 {
			return 8
		}
		return int(v)
	}
	return [numPhases]int{
		phaseWarm:   n(warmRequests * scale),
		phaseOpen:   n(w.OpenRate * seconds * openShare),
		phaseClosed: n(w.ClosedRate * seconds * closedShare),
		phaseProbe:  n(probeRequests * scale),
	}
}
