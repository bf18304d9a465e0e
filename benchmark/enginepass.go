package main

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/telecom"
	"repro/internal/transport"
	"repro/internal/txn"
)

// txnTiming is one transaction of the engine pass. All times are ns; at
// is relative to the recorder's epoch.
type txnTiming struct {
	at     int64
	exec   int64 // Engine.Execute, submit to return
	body   int64 // inside Request.Do, summed over restarts
	cwait  int64 // Committer.Commit, joined in by transaction id afterwards
	cwAt   int64
	txn    uint64
	update bool
}

// engineResult is what the engine pass (E) measured.
type engineResult struct {
	perConn [][]txnTiming
	txns    int
	commits int // update transactions

	mallocs  uint64
	restarts uint64
	denied   uint64

	cohortMean    float64
	queueDelayP50 time.Duration

	shipRecords           uint64 // wal records handed to the transport
	sockWrites, sockBytes uint64 // primary side of the replication socket
	mirrorLogBytes        uint64
	applyLagMax           uint64
	logSyncs, logBytes    uint64 // commit-path log device
	ckptCycles            int
	ckptPauseMax          time.Duration
	ckptBytes             uint64 // written by the cycles above
	segmentsReclaimed     uint64

	mismatch []string
}

func populateStore(db *store.Store) {
	for i := 0; i < dbSize; i++ {
		db.Put(store.ObjectID(i), populatedEntry(i))
	}
}

// rerouteDest cuts the destination out of a "REROUTE <id> <dest>\n" line.
func rerouteDest(line []byte) string {
	line = bytes.TrimSuffix(line, []byte("\n"))
	return string(line[bytes.LastIndexByte(line, ' ')+1:])
}

// runEnginePass executes the run's stream (warm-up, open and closed
// phases) directly through core.Engine.Execute, one goroutine per
// connection, one transaction at a time each. The engine is composed
// here from the same public constructors the node uses, so that the
// committer, both ends of the replication socket and the log devices can
// be wrapped with timers:
//
//	pair:   NewEngine(store, timed(NewMirrorShipper(transport.New(timed(tcp)))), LogShip)
//	        ↔ NewMirrorEngine(store2, timed(file log)).Run(transport.New(timed(tcp)))
//	single: NewNode(store, timed(OpenSegmented)).ServePrimary(LogDisk), committer wrapped,
//	        checkpoint-and-truncate every ckptLogBytes driven (and timed) from here
func runEnginePass(w *workloadDef, st *stream, workDir string, rec *recorder) (*engineResult, error) {
	er := &engineResult{perConn: make([][]txnTiming, len(st.conns))}
	cfg := core.Config{Workers: engineWorkers}
	db := store.New()
	populateStore(db)

	var (
		engine    *core.Engine
		tc        = &timedCommitter{rec: rec}
		stop      func() error // drains and shuts the composition down
		mirrorDB  *store.Store
		pipeStats func()
	)

	if w.Pair {
		mirrorDB = store.New()
		populateStore(mirrorDB)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		mlogFile, err := logstore.OpenFile(filepath.Join(workDir, "e-mirror.wal"))
		if err != nil {
			return nil, err
		}
		mlog := &timedStore{inner: mlogFile, rec: rec, name: "core.mirror.log"}
		mirror := core.NewMirrorEngine(cfg, mirrorDB, mlog)
		mirrorDone := make(chan error, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				mirrorDone <- err
				return
			}
			mirrorDone <- mirror.Run(transport.New(&timedRW{inner: c, rec: rec, side: "mirror"}))
		}()
		c, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
		if err != nil {
			return nil, err
		}
		prw := &timedRW{inner: c, rec: rec, side: "primary"}
		pconn := transport.New(prw)
		hello, err := pconn.Recv()
		if err != nil || hello.Type != transport.MsgHello {
			pconn.Close()
			return nil, fmt.Errorf("engine pass: mirror hello: %v", err)
		}
		// Both stores hold the same population, so no state transfer is
		// needed and shipping starts at the mirror's next serial.
		shipper := core.NewMirrorShipper(pconn, hello.Serial+1, core.ShipperOptions{
			AckTimeout: 2 * time.Second,
			Heartbeat:  100 * time.Millisecond,
			MaxCohort:  core.DefaultMaxCohort,
			MaxHold:    core.DefaultMaxCohortHold,
		})
		shipper.Start()
		tc.inner = shipper
		engine = core.NewEngine(cfg, db, tc, core.LogShip)

		// The mirror may run at most this many serials behind the
		// primary's validation order, sampled every 100 ms.
		var lagMax atomic.Uint64
		samplerStop := make(chan struct{})
		var samplerWG sync.WaitGroup
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-tick.C:
					p, m := engine.Controller().LastSerial(), mirror.LastSerial()
					if p > m && p-m > lagMax.Load() {
						lagMax.Store(p - m)
					}
				}
			}
		}()
		pipeStats = func() {
			ss := shipper.Stats()
			er.shipRecords = ss.RecordsShipped
			er.cohortMean = shipper.CohortSizes().Mean()
			er.queueDelayP50 = shipper.QueueDelay().Quantile(0.5)
			er.sockWrites, er.sockBytes = prw.writes.Load(), prw.wbytes.Load()
		}
		stop = func() error {
			close(samplerStop)
			samplerWG.Wait()
			er.applyLagMax = lagMax.Load()
			engine.Stop() // closes the shipper, which ends the mirror session
			<-mirrorDone
			er.mirrorLogBytes = mlog.bytes.Load()
			return mlog.Close()
		}
	} else {
		seg, err := logstore.OpenSegmented(filepath.Join(workDir, "e-log"), segmentBytes)
		if err != nil {
			return nil, err
		}
		log := &timedStore{inner: seg, seg: seg, rec: rec, name: "logstore"}
		node := core.NewNode("engine-pass", cfg, db, log)
		if err := node.ServePrimary("", core.LogDisk); err != nil {
			seg.Close()
			return nil, err
		}
		engine = node.Engine()
		group := engine.SetCommitter(tc, core.LogDisk)
		tc.inner = group
		ckptDir := filepath.Join(workDir, "e-ckpt")
		if _, err := node.CheckpointToDir(ckptDir); err != nil {
			return nil, fmt.Errorf("engine pass: base checkpoint: %w", err)
		}
		baseCkptBytes := uint64(node.CheckpointBytes().Mean() * float64(node.CheckpointBytes().Count()))

		ckptStop := make(chan struct{})
		var ckptWG sync.WaitGroup
		var ckptErr error
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			tick := time.NewTicker(10 * time.Millisecond) // the scheduler's own poll period
			defer tick.Stop()
			last := log.bytes.Load()
			for {
				select {
				case <-ckptStop:
					return
				case <-tick.C:
				}
				if now := log.bytes.Load(); now-last >= ckptLogBytes {
					start := rec.now()
					if _, err := node.CheckpointToDir(ckptDir); err != nil {
						ckptErr = err
						return
					}
					er.ckptCycles++
					rec.add(span{name: "core.ckpt.cycle", track: "checkpointer", start: start, dur: rec.now() - start, id: int64(er.ckptCycles)})
					last = now
				}
			}
		}()
		pipeStats = func() {
			if gc, ok := group.(*core.GroupCommitter); ok {
				er.cohortMean = gc.CohortSizes().Mean()
			}
		}
		stop = func() error {
			close(ckptStop)
			ckptWG.Wait()
			er.logSyncs, er.logBytes = log.syncs.Load(), log.bytes.Load()
			er.ckptPauseMax = node.CheckpointPauses().Max()
			er.ckptBytes = uint64(node.CheckpointBytes().Mean()*float64(node.CheckpointBytes().Count())) - baseCkptBytes
			er.segmentsReclaimed = log.segmentsReclaimed.Load()
			if err := node.Close(); err != nil {
				return err
			}
			if ckptErr != nil {
				return fmt.Errorf("engine pass: checkpoint: %w", ckptErr)
			}
			return log.Close()
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	errs := make([]error, len(st.conns))
	for c := range st.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			er.perConn[c], errs[c] = executeStream(engine, &st.conns[c], rec)
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	er.mallocs = m1.Mallocs - m0.Mallocs
	snap := engine.Outcome().Snapshot()
	er.restarts = snap.Restarts
	er.denied = engine.Overload().Denied()
	pipeStats()
	if err := stop(); err != nil {
		return nil, err
	}
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine pass, connection %d: %w", c, err)
		}
	}

	// Join the commit waits in by transaction id.
	waitOf := make(map[uint64]commitWait, len(tc.waits))
	for _, cw := range tc.waits {
		waitOf[cw.txn] = cw
	}
	for c := range er.perConn {
		for i := range er.perConn[c] {
			t := &er.perConn[c][i]
			t.cwait, t.cwAt = waitOf[t.txn].dur, waitOf[t.txn].start
			er.txns++
			if t.update {
				er.commits++
			}
		}
	}

	// The pass must leave both copies exactly where the model is.
	check := func(which string, s *store.Store) {
		for id, e := range st.after[phaseClosed] {
			v, ok := s.Get(store.ObjectID(id))
			got, err := telecom.Decode(v)
			if !ok || err != nil || got.Routed != e.routed(id) || got.Version != e.version {
				if len(er.mismatch) < 5 {
					er.mismatch = append(er.mismatch, fmt.Sprintf("engine pass: %s entry %d is %+v, want %s v%d", which, id, got, e.routed(id), e.version))
				}
			}
		}
	}
	check("primary", db)
	if mirrorDB != nil {
		check("mirror", mirrorDB)
	}
	return er, nil
}

// executeStream runs one connection's requests through the engine, in
// order, timing each Execute and the body inside it.
func executeStream(engine *core.Engine, cs *connStream, rec *recorder) ([]txnTiming, error) {
	n := 0
	for p := phaseWarm; p <= phaseClosed; p++ {
		n += len(cs.phases[p])
	}
	out := make([]txnTiming, 0, n)
	for p := phaseWarm; p <= phaseClosed; p++ {
		for i := range cs.phases[p] {
			r := &cs.phases[p][i]
			id := store.ObjectID(r.id)
			t := txnTiming{update: r.update}
			req := core.Request{Class: txn.Firm, Deadline: sessionDeadline, ReadOnly: !r.update}
			if r.update {
				dest := rerouteDest(cs.line(r))
				req.Do = func(tx *core.Tx) error {
					start := rec.now()
					defer func() { t.body += rec.now() - start; t.txn = uint64(tx.ID()) }()
					v, err := tx.ReadView(id)
					if err != nil {
						return err
					}
					old, err := telecom.Decode(v)
					if err != nil {
						return err
					}
					return tx.Write(id, telecom.Encode(telecom.Reroute(old, dest)))
				}
			} else {
				req.Do = func(tx *core.Tx) error {
					start := rec.now()
					defer func() { t.body += rec.now() - start; t.txn = uint64(tx.ID()) }()
					_, err := telecom.Translate(func(id store.ObjectID) ([]byte, bool) {
						v, rerr := tx.ReadView(id)
						return v, rerr == nil
					}, id)
					return err
				}
			}
			t.at = rec.now()
			err := engine.Execute(req)
			t.exec = rec.now() - t.at
			if err != nil {
				return out, fmt.Errorf("%s: %w", bytes.TrimSpace(cs.line(r)), err)
			}
			out = append(out, t)
		}
	}
	return out, nil
}
