package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	rodain "repro"
)

// socketResult is everything the socket pass (S) measured: the whole
// untraced run, and the first of the traced run's three passes.
type socketResult struct {
	setups     []time.Duration // one per set-up; setup_s is their median
	mirrorJoin time.Duration   // of the set-up that was kept

	phases [numPhases][]*connResult // per connection

	// User+sys time of the whole process (both nodes and the generator)
	// over the open and over the closed loop.
	openCPU, closedCPU time.Duration
	openMem            memDelta
	gcPause            time.Duration // over the open and closed loops
	rssPeakKiB         int64

	dbBefore, dbAfter rodain.Stats // around the open..probe phases
	statsLine         string       // STATS after the last phase

	gate gateResult
}

type memDelta struct{ mallocs, bytes uint64 }

// rusage is getrusage(RUSAGE_SELF); it cannot fail with these arguments.
func rusage() (ru syscall.Rusage) {
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the user+sys time the process has used so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSocketPass sets the workload's cluster up setups times, drives the
// last one through the phases over loopback TCP, and ends with the
// correctness gate. Tracing in this pass is the generator recording a
// span for every closed-loop request, plus the depth-1 probe phase; the
// untraced pass counts the closed loop's replies and times the whole.
func runSocketPass(w *workloadDef, st *stream, workDir string, traced bool, setups int) (*socketResult, error) {
	nconns := len(st.conns)
	sr := &socketResult{}
	var cl *cluster
	for k := 0; k < setups; k++ {
		if cl != nil {
			cl.close()
		}
		var took time.Duration
		var err error
		cl, took, err = setup(w, filepath.Join(workDir, fmt.Sprintf("s%d", k)), nconns)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		sr.setups = append(sr.setups, took)
	}
	defer func() { cl.close() }()
	sr.mirrorJoin = cl.mirrorJoin

	taints := make([]taintSet, nconns)
	for c := range taints {
		taints[c] = taintSet{}
	}
	// each runs one phase on every connection at once.
	each := func(p phase, fn func(c int, start time.Time) (*connResult, error)) error {
		var wg sync.WaitGroup
		errs := make([]error, nconns)
		sr.phases[p] = make([]*connResult, nconns)
		start := time.Now()
		for c := 0; c < nconns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sr.phases[p][c], errs[c] = fn(c, start)
			}(c)
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				return fmt.Errorf("%s phase, connection %d: %w", phaseNames[p], c, err)
			}
		}
		return nil
	}
	closed := func(p phase, depth int, stamp bool) error {
		return each(p, func(c int, start time.Time) (*connResult, error) {
			return cl.conns[c].closedLoop(&st.conns[c], st.conns[c].phases[p], depth, stamp, start, taints[c])
		})
	}

	if err := closed(phaseWarm, closedDepth, false); err != nil {
		return nil, err
	}

	// Start the timed phases from a collected heap, so that where the
	// first collection falls does not depend on how much garbage
	// generation and set-up happened to leave.
	runtime.GC()
	sr.dbBefore = cl.primary.Stats()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	err := each(phaseOpen, func(c int, start time.Time) (*connResult, error) {
		return cl.conns[c].openLoop(&st.conns[c], st.conns[c].phases[phaseOpen], start, taints[c])
	})
	if err != nil {
		return nil, err
	}
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	sr.openCPU = cpu1 - cpu0
	sr.openMem = memDelta{mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}

	cpu1 = cpuTime() // ReadMemStats stops the world; not the closed loop's time
	if err := closed(phaseClosed, closedDepth, traced); err != nil {
		return nil, err
	}
	sr.closedCPU = cpuTime() - cpu1
	runtime.ReadMemStats(&m2)
	sr.gcPause = time.Duration(m2.PauseTotalNs - m0.PauseTotalNs)

	last := phaseClosed
	if traced {
		if err := closed(phaseProbe, 1, true); err != nil {
			return nil, err
		}
		last = phaseProbe
	}
	sr.dbAfter = cl.primary.Stats()
	if reply, err := cl.conns[0].roundTrip([]byte("STATS\n")); err == nil {
		sr.statsLine = string(reply)
	}
	sr.rssPeakKiB = rusage().Maxrss

	tainted := taintSet{}
	for _, t := range taints {
		for id := range t {
			tainted[id] = true
		}
	}
	sr.gate, err = cl.gate(st.after[last], tainted)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	return sr, nil
}
