package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	rodain "repro"
	"repro/internal/logstore"
	"repro/internal/service"
	"repro/internal/telecom"
)

// Log layout of the single-node (transient) workload: small segments and
// a checkpoint after every ckptLogBytes of log, so that even the
// shortened run completes at least five checkpoint-and-truncate cycles
// (about 100 bytes of log per REROUTE).
const (
	segmentBytes = 128 << 10
	ckptLogBytes = 256 << 10
)

// cluster is the system under test: one node, or a primary+mirror pair,
// each behind a service front end on a loopback socket, hosted in this
// process so one CPU/allocation account covers both nodes and the
// failover check can reach DB.Crash.
type cluster struct {
	w   *workloadDef
	dir string

	primary    *rodain.DB
	srv        *service.Server
	addr       string
	mirror     *rodain.DB
	mirrorSrv  *service.Server
	mirrorAddr string

	conns []*conn

	mirrorJoin time.Duration // OpenMirror → EventMirrorAttached
}

func nodeOptions(name string) rodain.Options {
	return rodain.Options{Name: name, Workers: engineWorkers, Durability: rodain.DurDisk}
}

// populate loads the number-translation database exactly as rodaind does.
func populate(db *rodain.DB) {
	for i := 0; i < dbSize; i++ {
		db.Load(rodain.ObjectID(i), populatedEntry(i))
	}
}

// setup opens the node(s) of workload w under dir, populates them,
// waits for the mirror to attach and dials nconns client connections. It
// returns the ready cluster and how long all of that took — one sample of
// setup_s.
func setup(w *workloadDef, dir string, nconns int) (*cluster, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cl := &cluster{w: w, dir: dir}
	ok := false
	defer func() {
		if !ok {
			cl.close()
		}
	}()
	var err error
	if w.Pair {
		opts := nodeOptions("primary")
		opts.LogPath = filepath.Join(dir, "primary.wal")
		if cl.primary, err = rodain.OpenPrimary(opts, "127.0.0.1:0"); err != nil {
			return nil, 0, fmt.Errorf("open primary: %w", err)
		}
	} else {
		opts := nodeOptions("single")
		opts.LogPath = filepath.Join(dir, "log")
		opts.LogSegmentBytes = segmentBytes
		opts.CheckpointDir = filepath.Join(dir, "ckpt")
		opts.CheckpointLogBytes = ckptLogBytes
		if cl.primary, err = rodain.Open(opts); err != nil {
			return nil, 0, fmt.Errorf("open node: %w", err)
		}
	}
	populate(cl.primary)
	if !w.Pair {
		// Population is not logged; the first checkpoint is what makes
		// the node recoverable from its own disk at all.
		if _, err := cl.primary.CheckpointToDir(filepath.Join(dir, "ckpt")); err != nil {
			return nil, 0, fmt.Errorf("base checkpoint: %w", err)
		}
	}
	cl.srv = service.NewServerConfig(cl.primary, service.Config{})
	if cl.addr, err = cl.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	if w.Pair {
		opts := nodeOptions("mirror")
		opts.LogPath = filepath.Join(dir, "mirror.wal")
		joinStart := time.Now()
		if cl.mirror, err = rodain.OpenMirror(opts, cl.primary.ReplAddr(), "127.0.0.1:0"); err != nil {
			return nil, 0, fmt.Errorf("open mirror: %w", err)
		}
		if err := waitEvent(cl.primary, rodain.EventMirrorAttached, 10*time.Second); err != nil {
			return nil, 0, err
		}
		cl.mirrorJoin = time.Since(joinStart)
		cl.mirrorSrv = service.NewServerConfig(cl.mirror, service.Config{})
		if cl.mirrorAddr, err = cl.mirrorSrv.Listen("127.0.0.1:0"); err != nil {
			return nil, 0, fmt.Errorf("mirror listen: %w", err)
		}
	}
	for i := 0; i < nconns; i++ {
		c, err := dialConn(cl.addr)
		if err != nil {
			return nil, 0, err
		}
		cl.conns = append(cl.conns, c)
	}
	ok = true
	return cl, time.Since(start), nil
}

func waitEvent(db *rodain.DB, kind rodain.EventKind, timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		select {
		case ev := <-db.Events():
			if ev.Kind == kind {
				return nil
			}
		case <-deadline:
			return fmt.Errorf("no %v event within %v", kind, timeout)
		}
	}
}

// close shuts everything down gracefully (mirror first, so it does not
// take over from a primary that is merely closing) and removes the
// cluster's files.
func (cl *cluster) close() {
	for _, c := range cl.conns {
		c.close()
	}
	cl.conns = nil
	if cl.mirrorSrv != nil {
		cl.mirrorSrv.Close()
	}
	if cl.mirror != nil {
		cl.mirror.Close()
	}
	if cl.srv != nil {
		cl.srv.Close()
	}
	if cl.primary != nil {
		cl.primary.Close()
	}
	os.RemoveAll(cl.dir)
}

// gateResult is what the post-run correctness gate found.
type gateResult struct {
	takeover time.Duration // Crash → first OK from the mirror (pairs)
	recover  time.Duration // replay of the files the run left into a fresh node
	checked  int
	mismatch []string // first few differences; empty means the gate passed
}

func (g *gateResult) fail(format string, args ...any) {
	if len(g.mismatch) < 5 {
		g.mismatch = append(g.mismatch, fmt.Sprintf(format, args...))
	}
}

// gate is the correctness check every run ends with. want is the
// reference model after the last acknowledged request; tainted marks ids
// whose REROUTE was not acknowledged OK (their final value is open).
//
// Pair: the primary is crashed, the mirror must start serving, and every
// entry read back through the mirror's socket must equal the model —
// acknowledged implies it survives a single node failure. Then the
// mirror's stored log is replayed into a fresh node and compared too.
//
// Single node: the node is crashed and a fresh one rebuilt from its
// checkpoint directory plus log segments.
//
// An in-process crash leaves the page cache intact, so this cannot see a
// missing fsync; that stays covered by the logstore.Mem.SyncedBytes
// property tests.
func (cl *cluster) gate(want []entryState, tainted taintSet) (gateResult, error) {
	var g gateResult
	fresh, err := rodain.Open(rodain.Options{Name: "recovered", Durability: rodain.DurNone})
	if err != nil {
		return g, err
	}
	defer fresh.Close()

	if cl.w.Pair {
		mc, err := dialConn(cl.mirrorAddr)
		if err != nil {
			return g, err
		}
		defer mc.close()
		crashed := time.Now()
		cl.primary.Crash()
		for {
			reply, err := mc.roundTrip([]byte("TRANSLATE 0\n"))
			if err != nil {
				return g, fmt.Errorf("mirror after crash: %w", err)
			}
			if len(reply) >= 2 && string(reply[:2]) == "OK" {
				break
			}
			if time.Since(crashed) > 10*time.Second {
				return g, fmt.Errorf("mirror did not take over within 10s (last reply %q)", reply)
			}
			time.Sleep(200 * time.Microsecond)
		}
		g.takeover = time.Since(crashed)
		if err := mc.verifyAll(want, tainted, &g); err != nil {
			return g, err
		}
		// Close flushes and syncs the mirror's log; then replay it.
		cl.mirrorSrv.Close()
		cl.mirrorSrv = nil
		if err := cl.mirror.Close(); err != nil {
			return g, fmt.Errorf("close mirror: %w", err)
		}
		cl.mirror = nil
		f, err := os.Open(filepath.Join(cl.dir, "mirror.wal"))
		if err != nil {
			return g, err
		}
		defer f.Close()
		start := time.Now()
		if _, err := fresh.Recover(bufio.NewReaderSize(f, 256<<10)); err != nil {
			return g, fmt.Errorf("replay mirror log: %w", err)
		}
		g.recover = time.Since(start)
	} else {
		// Crash leaves the log device open, as a killed process would;
		// DB.Close after Crash would stop the checkpoint scheduler twice,
		// so the crashed node is simply dropped.
		cl.primary.Crash()
		cl.primary = nil
		rc, err := logstore.OpenSegmentsReader(filepath.Join(cl.dir, "log"))
		if err != nil {
			return g, err
		}
		defer rc.Close()
		start := time.Now()
		if _, err := fresh.RecoverFromDir(filepath.Join(cl.dir, "ckpt"), bufio.NewReaderSize(rc, 256<<10)); err != nil {
			return g, fmt.Errorf("recover from checkpoint+segments: %w", err)
		}
		g.recover = time.Since(start)
	}
	compareDB(fresh, want, tainted, &g)
	return g, nil
}

// compareDB checks every entry of db against the model.
func compareDB(db *rodain.DB, want []entryState, tainted taintSet, g *gateResult) {
	for id, e := range want {
		if tainted[uint32(id)] {
			continue
		}
		g.checked++
		v, ok := db.Get(rodain.ObjectID(id))
		if !ok {
			g.fail("recovered node: entry %d missing", id)
			continue
		}
		got, err := telecom.Decode(v)
		if err != nil {
			g.fail("recovered node: entry %d: %v", id, err)
			continue
		}
		if got.Routed != e.routed(id) || got.Version != e.version {
			g.fail("recovered node: entry %d is %s v%d, want %s v%d", id, got.Routed, got.Version, e.routed(id), e.version)
		}
	}
}
