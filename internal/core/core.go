// Package core implements the paper's primary contribution: the RODAIN
// node — a real-time main-memory database engine whose availability comes
// from a hot stand-by Mirror Node kept up to date with redo logs shipped
// synchronously at commit.
//
// A node runs in one of three operating modes:
//
//   - Primary: transactions execute here; the Log Writer ships each
//     committing transaction's redo records plus a commit record to the
//     mirror and lets the transaction commit as soon as the mirror's
//     acknowledgment arrives. The disk write is off the critical path:
//     commit costs one message round trip instead of one disk write.
//   - Mirror: receives the log stream in true validation order (checking
//     that serials are contiguous), one frame of stored-log bytes per
//     cohort; applies updates only on commit records (never undoes
//     anything), stores each frame's bytes as received and syncs them to
//     disk asynchronously, and acknowledges a frame's commits as soon as
//     it has taken it in. It is ready to take over at any moment.
//   - Transient primary: a node running alone after its peer failed. It
//     must put log records onto its own disk before letting transactions
//     commit. A recovered peer always rejoins as mirror — the database
//     service never switches away from a live node.
//
// The engine uses deferred writes (abort = discard the private
// workspace), optimistic concurrency control (OCC-DATI by default, see
// package occ), modified-EDF scheduling with an overload manager
// (package sched), and the log formats of package wal.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/logstore"
	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/wal"
)

// Mode is a node's operating mode.
type Mode int32

// Operating modes.
const (
	// ModePrimary executes transactions and ships logs to a mirror.
	ModePrimary Mode = iota
	// ModeMirror maintains the database copy and acknowledges logs.
	ModeMirror
	// ModeTransient executes transactions and logs directly to disk
	// because no mirror is available.
	ModeTransient
)

func (m Mode) String() string {
	switch m {
	case ModePrimary:
		return "primary"
	case ModeMirror:
		return "mirror"
	case ModeTransient:
		return "transient"
	default:
		return fmt.Sprintf("Mode(%d)", int32(m))
	}
}

// LogMode selects what happens on the commit path — the experimental
// axis of the paper's study.
type LogMode int

// Logging modes.
const (
	// LogShip ships log records to the mirror and waits for its
	// acknowledgment (normal two-node operation).
	LogShip LogMode = iota
	// LogDisk stores log records on the local disk synchronously before
	// commit (single node / transient mode with true log writes).
	LogDisk
	// LogDiscard generates log records but drops them without waiting
	// (single node, disk writing turned off — isolates log-building
	// overhead).
	LogDiscard
	// LogNone generates no log records at all (the "No logs" optimal
	// baseline).
	LogNone
)

func (m LogMode) String() string {
	switch m {
	case LogShip:
		return "ship"
	case LogDisk:
		return "disk"
	case LogDiscard:
		return "discard"
	case LogNone:
		return "none"
	default:
		return fmt.Sprintf("LogMode(%d)", int(m))
	}
}

// Committer is the commit step of the transaction pipeline: it makes a
// transaction's log records stable per the node's logging mode. The
// package's committers take the engine's commits without blocking; any
// other Committer is driven through its blocking Commit.
type Committer interface {
	// Commit blocks until the transaction's records are stable.
	Commit(g *wal.Group) error
	// Close releases resources; pending commits fail.
	Close() error
}

// ErrMirrorDown reports that the mirror connection failed mid-commit and
// no other commit path took the commit over.
var ErrMirrorDown = errors.New("core: mirror down")

// ErrStopped reports an engine that is shutting down.
var ErrStopped = errors.New("core: engine stopped")

// Config parameterizes a node.
type Config struct {
	// Protocol is the concurrency-control protocol (default OCC-DATI).
	Protocol occ.Kind
	// Workers is the number of executor slots — the "CPUs" of the node
	// (default 1, like the prototype's single Pentium Pro). No goroutine
	// backs a slot: the submitter runs its own transaction in it, at once
	// if one is free, else when a finishing transaction hands it over in
	// EDF order.
	Workers int
	// MaxRestarts bounds concurrency-control restarts per transaction
	// before it is aborted with a conflict (default 10; firm deadlines
	// usually fire first).
	MaxRestarts int
	// NonRTReserve is the dispatch fraction reserved on demand for
	// non-real-time transactions (default 0.05).
	NonRTReserve float64
	// Overload configures the overload manager.
	Overload sched.OverloadConfig
	// MaxCohort caps how many committing transactions one group-commit
	// cohort may carry: one log frame to the mirror in shipping mode,
	// or one Append + Sync in transient mode (default 64). A cap of 1 is the paper's per-commit sync.
	MaxCohort int
	// MirrorSyncEvery is how often the mirror syncs buffered log
	// records to disk (asynchronously; default 50 ms when not positive).
	MirrorSyncEvery time.Duration
	// AckTimeout bounds how long a commit waits for the mirror's
	// acknowledgment before declaring the mirror down (default 2 s).
	AckTimeout time.Duration
	// HeartbeatEvery is the watchdog ping interval (default 100 ms).
	HeartbeatEvery time.Duration
	// HeartbeatMisses is how many missed heartbeats declare the peer
	// dead (default 3).
	HeartbeatMisses int
	// Clock supplies time to the engine and its committers (deadline
	// checks, latency histograms, the shipper's heartbeat). Nil uses the
	// wall clock; a simtime.SimClock drives simulated-time runs without
	// real sleeps.
	Clock simtime.Clock
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 10
	}
	if c.NonRTReserve == 0 {
		c.NonRTReserve = 0.05
	}
	if c.MirrorSyncEvery <= 0 {
		c.MirrorSyncEvery = 50 * time.Millisecond
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 100 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.MaxCohort <= 0 {
		c.MaxCohort = DefaultMaxCohort
	}
	if c.Clock == nil {
		c.Clock = simtime.NewWallClock()
	}
	return c
}

// DefaultMaxCohort caps a group-commit cohort: big enough to amortize a
// flush or an fsync across a burst.
const DefaultMaxCohort = 64

// DefaultMaxCohortHold is ignored: group commit arms no hold timer.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
const DefaultMaxCohortHold = 200 * time.Microsecond

// buildCommitter constructs the committer for a logging mode. cfg must
// already have its defaults applied.
func buildCommitter(mode LogMode, log logstore.Store, cfg Config) Committer {
	switch mode {
	case LogDisk:
		return NewGroupCommitter(log, GroupOptions{MaxCohort: cfg.MaxCohort})
	case LogDiscard, LogNone:
		return newNoWaitCommitter()
	default:
		panic("core: LogShip committers are built from a mirror connection")
	}
}
