// Package rodain is a real-time main-memory database whose availability
// comes from a hot stand-by mirror node kept up to date with transaction
// logs shipped synchronously at commit — a reproduction of the RODAIN
// architecture (Niklander & Raatikainen, "Using Logs to Increase
// Availability in Real-Time Main-Memory Database", IPPS/SPDP 2000).
//
// # Embedded use
//
//	db, err := rodain.Open(rodain.Options{LogPath: "node.wal"})
//	defer db.Close()
//	err = db.Populate(1000, func(i int) (rodain.ObjectID, []byte) {
//	    return rodain.ObjectID(i), []byte("initial")
//	})
//	err = db.Update(50*time.Millisecond, func(tx *rodain.Tx) error {
//	    v, err := tx.Read(42)
//	    if err != nil {
//	        return err
//	    }
//	    return tx.Write(42, append(v, '!'))
//	})
//
// Populate loads a table through logged batches, so it is as durable as
// any update. Transactions carry firm deadlines: past the deadline they
// are aborted (ErrDeadline), never late. Writes are deferred — an abort
// simply discards the private workspace.
//
// # A replicated pair
//
//	primary, _ := rodain.OpenPrimary(opts, "10.0.0.1:7000")
//	mirror, _  := rodain.OpenMirror(opts, "10.0.0.1:7000", "10.0.0.2:7000")
//
// The primary commits each transaction once the mirror acknowledges its
// log records: one message round trip instead of a disk write on the
// commit path. If the primary fails, the mirror takes over almost
// instantly (watch Events for Takeover) and logs to its own disk until
// the failed node rejoins — always as mirror.
//
// # Restart
//
// Opening a node recovers it: Open, OpenPrimary and OpenMirror replay the
// checkpoint in Options.CheckpointDir and the log at Options.LogPath
// before the node serves, listens or dials, and its first commit
// continues the recovered history. The log is read once: appends resume
// exactly where the replay stopped.
package rodain

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/metrics"
	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Re-exported fundamental types.
type (
	// ObjectID addresses one data item.
	ObjectID = store.ObjectID
	// Tx is the transactional operation surface passed to Update/View
	// bodies.
	Tx = core.Tx
	// Class is a transaction criticality class.
	Class = txn.Class
	// Event is a node role-change notification.
	Event = core.Event
	// EventKind classifies Events.
	EventKind = core.EventKind
	// Release is the durability condition a submitted transaction's
	// result waits on before it may be shown (see DB.Submit).
	Release = core.Release
	// Hold keeps the node's commit path open while a front end submits
	// updates it already has in hand (see DB.HoldCommits).
	Hold = core.Hold
)

// Criticality classes.
const (
	// Firm transactions abort when their deadline expires.
	Firm = txn.Firm
	// Soft transactions finish late but count as missed.
	Soft = txn.Soft
	// NonRealTime transactions have no deadline and run in a reserved
	// dispatch share.
	NonRealTime = txn.NonRealTime
)

// Role-change event kinds.
const (
	EventMirrorAttached = core.EventMirrorAttached
	EventMirrorLost     = core.EventMirrorLost
	EventTakeover       = core.EventTakeover
	EventCommitFailed   = core.EventCommitFailed
)

// Errors surfaced by transactions.
var (
	// ErrDeadline: the firm deadline expired before commit.
	ErrDeadline = core.ErrDeadline
	// ErrConflict: concurrency control gave up after restarts.
	ErrConflict = core.ErrConflict
	// ErrOverload: the overload manager denied admission.
	ErrOverload = core.ErrOverload
	// ErrNotServing: this node is a mirror; transactions execute only
	// on the primary.
	ErrNotServing = core.ErrNotServing
	// ErrClosed: the database is closed.
	ErrClosed = core.ErrStopped
)

// Durability selects what happens on the commit path of a primary
// running without a mirror: before one attaches, and again whenever it
// is lost or replaced. OpenMirror ignores it: a mirror that takes over
// logs to its own disk, as the paper's transient primary does.
type Durability int

// Durability levels for single-node operation. A primary with an
// attached mirror always ships logs; it returns to its own Durability
// whenever it has no mirror.
const (
	// DurDisk stores log records on the local log device before commit
	// (the paper's transient mode).
	DurDisk Durability = iota
	// DurRelaxed builds log records but does not wait for the device —
	// the paper's "disk writing turned off" configuration.
	DurRelaxed
	// DurNone writes no logs at all (volatile, fastest).
	DurNone
)

func (d Durability) logMode() core.LogMode {
	switch d {
	case DurRelaxed:
		return core.LogDiscard
	case DurNone:
		return core.LogNone
	default:
		return core.LogDisk
	}
}

// Options configures a database node.
type Options struct {
	// Name labels the node in events and errors.
	Name string
	// LogPath is the log file. Open recovers from it: before the node
	// serves or mirrors, it replays the log (over the checkpoint in
	// CheckpointDir, if any) and continues its history, so a node
	// reopened on the same LogPath resumes where it stopped. Empty keeps
	// the log in memory (useful for tests and for DurNone/DurRelaxed
	// nodes).
	LogPath string
	// Durability is a primary's single-node commit path, used whenever
	// it has no mirror; OpenMirror ignores it (see Durability).
	Durability Durability
	// Protocol selects concurrency control: "dati" (default), "ti",
	// "da" or "bc".
	Protocol string
	// Workers is the number of executor slots, the node's "CPUs": each
	// submitter runs its own transaction in one (default 1).
	Workers int
	// MaxActive caps concurrently admitted transactions (default 50).
	MaxActive int
	// MaxRestarts bounds concurrency-control restarts per transaction.
	MaxRestarts int
	// NonRTReserve is the dispatch fraction reserved for non-real-time
	// transactions (default 0.05).
	NonRTReserve float64
	// MaxCohort caps how many committing transactions one group-commit
	// cohort carries — a wire batch to the mirror, or one vectored
	// append + sync on the transient primary (default 64; 1 is the
	// paper's per-commit sync).
	MaxCohort int
	// SimulatedDiskLatency, when > 0, adds this latency to every log
	// sync — a stand-in for the slow log disk of the paper's era on
	// machines whose real storage is too fast to show the effect.
	SimulatedDiskLatency time.Duration
	// AckTimeout bounds the wait for a mirror acknowledgment.
	AckTimeout time.Duration
	// HeartbeatEvery and HeartbeatMisses tune failure detection.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// LogSegmentBytes switches the file log (LogPath must be set) to a
	// segmented store rolling at this size: LogPath becomes a directory
	// of segment files, and the checkpoint cycle reclaims space by
	// unlinking whole sealed segments instead of keeping one
	// ever-growing file. Zero keeps one log file that never rolls. Open
	// recovers from every segment in the directory, in log order, and
	// fails with wal.ErrCorrupt if a sealed segment is damaged.
	LogSegmentBytes int64
	// CheckpointDir is where checkpoints live. Open recovers from the
	// checkpoint file in it, if there is one, before it replays the log.
	// When set, it also starts a background checkpoint-and-truncate
	// scheduler writing into this directory; at least one of
	// CheckpointEvery/CheckpointLogBytes must also be set for it to ever
	// fire.
	CheckpointDir string
	// CheckpointEvery triggers a background checkpoint on this interval.
	CheckpointEvery time.Duration
	// CheckpointLogBytes triggers a background checkpoint after this
	// many bytes of log growth since the previous one.
	CheckpointLogBytes uint64
}

func (o Options) coreConfig() (core.Config, error) {
	cfg := core.Config{
		Workers:         o.Workers,
		MaxRestarts:     o.MaxRestarts,
		NonRTReserve:    o.NonRTReserve,
		MaxCohort:       o.MaxCohort,
		AckTimeout:      o.AckTimeout,
		HeartbeatEvery:  o.HeartbeatEvery,
		HeartbeatMisses: o.HeartbeatMisses,
	}
	if o.MaxActive > 0 {
		cfg.Overload = sched.OverloadConfig{MaxActive: o.MaxActive}
	}
	if o.Protocol != "" {
		k, err := occ.ParseKind(o.Protocol)
		if err != nil {
			return cfg, err
		}
		cfg.Protocol = k
	}
	return cfg, nil
}

// openLog opens the log device LogPath names, handing every group of
// the stored log to replay (see logstore.Open); an empty LogPath keeps
// the log in memory.
func (o Options) openLog(replay func([]byte) error) (logstore.Store, error) {
	var st logstore.Store = logstore.NewMem()
	if o.LogPath != "" {
		s, err := logstore.Open(o.LogPath, o.LogSegmentBytes, replay)
		if err != nil {
			return nil, err
		}
		st = s
	}
	if o.SimulatedDiskLatency > 0 {
		st = logstore.NewDelayed(st, o.SimulatedDiskLatency)
	}
	return st, nil
}

// DB is one RODAIN node. Depending on how it was opened it is an
// embedded single node, the primary of a pair, or a mirror (which serves
// transactions only after a takeover).
type DB struct {
	node *core.Node
	log  logstore.Store
}

// Open starts an embedded single-node database.
func Open(opts Options) (*DB, error) {
	db, _, err := open(opts, "", false)
	return db, err
}

// OpenPrimary starts a database-server node that accepts a mirror on
// replListen. Whenever it has no mirror — until one attaches, and after
// one is lost — it runs in transient mode, committing per
// opts.Durability.
func OpenPrimary(opts Options, replListen string) (*DB, error) {
	if replListen == "" {
		return nil, errors.New("rodain: OpenPrimary needs a replication listen address")
	}
	db, _, err := open(opts, replListen, false)
	return db, err
}

// open recovers a node from the storage opts names and starts it: the
// checkpoint in CheckpointDir goes into a fresh store, and opening the log
// at LogPath replays it over the image in the same pass, cutting the log
// where the replay stops. Only then does the node serve (unless it is to
// be a mirror) and start its checkpoint scheduler, continuing the
// recovered history.
func open(opts Options, replListen string, mirror bool) (*DB, *core.Node, error) {
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, nil, err
	}
	db := store.New()
	rp := wal.NewReplayer(db)
	if err := core.InstallCheckpoint(opts.CheckpointDir, rp); err != nil {
		return nil, nil, err
	}
	log, err := opts.openLog(rp.Add)
	if err != nil {
		return nil, nil, err
	}
	name := opts.Name
	if name == "" {
		name = "rodain"
	}
	node := core.NewNode(name, cfg, db, log)
	node.SetResume(rp.Stats())
	if !mirror {
		if err := node.ServePrimary(replListen, opts.Durability.logMode()); err != nil {
			node.Close()
			log.Close()
			return nil, nil, err
		}
	}
	if opts.CheckpointDir != "" && (opts.CheckpointEvery > 0 || opts.CheckpointLogBytes > 0) {
		node.StartCheckpointScheduler(opts.CheckpointDir, core.CheckpointSchedulerOptions{
			Every:    opts.CheckpointEvery,
			LogBytes: opts.CheckpointLogBytes,
		})
	}
	return &DB{node: node, log: log}, node, nil
}

// OpenMirror starts a hot stand-by for the primary at primaryAddr. The
// returned DB rejects transactions (ErrNotServing) until the primary
// fails, at which point this node takes over, listens for a rejoining
// mirror on takeoverListen, and begins serving. Watch Events for
// EventTakeover.
func OpenMirror(opts Options, primaryAddr, takeoverListen string) (*DB, error) {
	db, node, err := open(opts, "", true)
	if err != nil {
		return nil, err
	}
	go func() {
		// RunMirror blocks for the node's mirror lifetime and handles
		// takeover itself; errors after close are benign.
		_ = node.RunMirror(primaryAddr, takeoverListen)
	}()
	return db, nil
}

// populateBatch is how many writes one Populate transaction carries.
const populateBatch = 1000

// Populate writes the table entry(0), …, entry(n-1) through logged
// NonRealTime transactions of 1 000 writes each, each durable before the
// next starts. A populated table is exactly as durable as an Update under
// the node's Durability: it is in the log a reopened node replays, and an
// attached mirror receives it. A crash part-way through leaves a prefix
// made of whole batches. entry must be a pure function of i, since a
// batch that restarts calls it again. On a mirror Populate fails with
// ErrNotServing.
func (db *DB) Populate(n int, entry func(i int) (ObjectID, []byte)) error {
	for lo := 0; lo < n; lo += populateBatch {
		hi := min(lo+populateBatch, n)
		if err := db.Exec(NonRealTime, 0, 0, func(tx *Tx) error {
			for i := lo; i < hi; i++ {
				if err := tx.Write(entry(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// Load puts an object outside any transaction: unlogged, unreplicated,
// its timestamps reset. A node reopened on its LogPath does not hold it.
// Use Populate.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6.
func (db *DB) Load(id ObjectID, value []byte) { db.node.DB().Put(id, value) }

// Get reads the latest validated value outside any transaction. It does
// not wait for the durable watermark, so it may return a value whose
// commit is not yet stable and could still be lost in a crash. View
// returns only values whose commits are durable.
func (db *DB) Get(id ObjectID) ([]byte, bool) { return db.node.DB().Get(id) }

// Len reports the number of objects.
func (db *DB) Len() int { return db.node.DB().Len() }

// Update runs fn as a firm-deadline read-write transaction. fn may be
// retried on concurrency-control restarts; it must be a pure function of
// its Tx reads.
func (db *DB) Update(deadline time.Duration, fn func(*Tx) error) error {
	return db.node.Execute(core.Request{Class: txn.Firm, Deadline: deadline, Do: fn})
}

// View runs fn as a firm-deadline read-only transaction. Its reads skip
// conflict registration and commit through the controller's snapshot
// fast path — no serial ticket, no log record, no mirror round trip.
// Writes are not prevented: a View body that writes anyway is transparently demoted to
// the fully registered read-write path at the cost of one restart. View
// returns only once every commit whose writes fn observed is durable.
func (db *DB) View(deadline time.Duration, fn func(*Tx) error) error {
	return db.node.Execute(core.Request{Class: txn.Firm, Deadline: deadline, ReadOnly: true, Do: fn})
}

// Exec runs a transaction with full control over class, deadline and
// criticality.
func (db *DB) Exec(class Class, deadline time.Duration, criticality int, fn func(*Tx) error) error {
	return db.node.Execute(core.Request{Class: class, Deadline: deadline, Criticality: criticality, Do: fn})
}

// Submit is Exec without the wait for durability: it returns once the
// transaction has validated (or aborted), and the Release says what its
// result waits on. A front end that pipelines requests uses it to start
// the next update while earlier commits are still in flight; it must not
// show the result until Release.Ready (or Release.Wait returns nil), and
// must report a failure if Release.Wait fails.
func (db *DB) Submit(class Class, deadline time.Duration, criticality int, fn func(*Tx) error) (Release, error) {
	return db.node.Submit(core.Request{Class: class, Deadline: deadline, Criticality: criticality, Do: fn})
}

// SubmitReadOnly is Submit with the read-only declaration: the Release
// of a read waits for the commits whose writes it observed.
func (db *DB) SubmitReadOnly(class Class, deadline time.Duration, criticality int, fn func(*Tx) error) (Release, error) {
	return db.node.Submit(core.Request{Class: class, Deadline: deadline, Criticality: criticality, ReadOnly: true, Do: fn})
}

// HoldCommits holds the commit path open: until Release, a cohort waits
// for the updates the caller is about to submit (up to a full cohort),
// so they share one mirror frame or one sync. The caller must release
// the Hold exactly once, and before it waits for anything — a reply's
// Release, a socket read — since the commits it holds wait for it. On a
// node that is not serving it is a no-op.
func (db *DB) HoldCommits() Hold {
	e := db.node.Engine()
	if e == nil {
		return Hold{}
	}
	return e.Hold()
}

// Events delivers role-change notifications (mirror attached/lost,
// takeover) and the failure of a commit on every log path.
func (db *DB) Events() <-chan Event { return db.node.Events() }

// ReplAddr reports the node's replication listener address, "" if none
// (mirrors gain one after takeover).
func (db *DB) ReplAddr() string { return db.node.ReplAddr() }

// Serving reports whether the node currently executes transactions.
func (db *DB) Serving() bool { return db.node.Engine() != nil }

// Overloaded reports whether the overload manager would deny an
// arriving transaction right now. A service front end consults it at
// the socket to answer MISS overload without queueing any work; the
// check is advisory — admission proper still happens per transaction.
// It is false on a node that is not serving (those requests fail with
// ErrNotServing instead).
func (db *DB) Overloaded() bool {
	e := db.node.Engine()
	return e != nil && e.AtAdmissionLimit()
}

// Stats summarizes the node's transaction processing so far.
type Stats struct {
	// Outcome is the submitted/committed/missed tally.
	Outcome metrics.Snapshot
	// MissRatio is missed/submitted.
	MissRatio float64
	// MeanResponse is the mean submit→commit latency.
	MeanResponse time.Duration
	// MeanCommitWait is the mean validation→commit (log wait) latency —
	// the cost the hot stand-by removes from the critical path.
	MeanCommitWait time.Duration
	// P95Response is the 95th-percentile response time.
	P95Response time.Duration
	// Mode is the node's current role.
	Mode string
	// LogMode is the current commit path.
	LogMode string
	// ROFastCommits counts read-only transactions committed on the
	// snapshot fast path (no serial ticket, no log record).
	ROFastCommits uint64
	// ROFallbacks counts read-only fast-path attempts that fell back to
	// full validation (snapshot no longer certifiable).
	ROFallbacks uint64
	// ReadLatency digests the per-read data-access latency distribution.
	ReadLatency metrics.HistogramSummary
	// ReplyHolds counts read results held back because they observed a
	// write whose commit was not yet durable.
	ReplyHolds uint64
	// CommitCohortMean is the mean number of commits made durable by one
	// advance of the durable watermark: one ack or one sync per cohort.
	CommitCohortMean float64
}

// Stats returns a snapshot of the node's counters. Zero for a mirror
// that has never served.
func (db *DB) Stats() Stats {
	e := db.node.Engine()
	if e == nil {
		return Stats{Mode: db.node.Mode().String()}
	}
	snap := e.Outcome().Snapshot()
	occStats := e.Controller().Stats()
	return Stats{
		Outcome:        snap,
		MissRatio:      snap.MissRatio(),
		MeanResponse:   e.ResponseTimes().Mean(),
		MeanCommitWait: e.CommitWaits().Mean(),
		P95Response:    e.ResponseTimes().Quantile(0.95),
		Mode:           db.node.Mode().String(),
		LogMode:        e.LogMode().String(),
		ROFastCommits:  occStats.ROFastCommits,
		ROFallbacks:    occStats.ROFallbacks,
		ReadLatency:    occStats.ReadLatency,
		ReplyHolds:     e.ReplyHolds(),

		CommitCohortMean: e.CommitCohorts().Mean(),
	}
}

// Recover replays the stored log r into a node that is already serving
// and seeds its engine past the log.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6. Open recovers
// a node from its own LogPath and CheckpointDir before it serves.
func (db *DB) Recover(r io.Reader) (RecoverStats, error) { return db.RecoverFromDir("", r) }

// RecoverStats summarizes a log replay.
type RecoverStats = wal.RecoverStats

// CheckpointStats summarizes one fuzzy checkpoint cycle.
type CheckpointStats = core.CheckpointStats

// FuzzyCheckpoint writes a fuzzy, stripe-incremental checkpoint to w:
// each store stripe is copied under only its own lock, tagged with a
// per-stripe serial watermark, while commits proceed on the other
// stripes. The checkpoint is one log group: a replay of it followed by
// the log applies the suffix per stripe watermark.
func (db *DB) FuzzyCheckpoint(w io.Writer) (CheckpointStats, error) {
	return db.node.FuzzyCheckpoint(w)
}

// CheckpointToDir writes an atomic checkpoint file into dir and then
// truncates the node's log — the checkpoint-and-truncate cycle that
// bounds recovery time. Open with dir as CheckpointDir recovers from it.
func (db *DB) CheckpointToDir(dir string) (uint64, error) {
	return db.node.CheckpointToDir(dir)
}

// RecoverFromDir restores a node that is already serving from a
// CheckpointToDir directory plus the log tail r, and seeds its engine past
// them.
//
// Deprecated: benchmark compat, remove with ROADMAP item 6. Open recovers
// a node from its own LogPath and CheckpointDir before it serves.
func (db *DB) RecoverFromDir(dir string, r io.Reader) (RecoverStats, error) {
	rp := wal.NewReplayer(db.node.DB())
	if err := core.InstallCheckpoint(dir, rp); err != nil {
		return RecoverStats{}, err
	}
	st, err := wal.Replay(r, rp)
	if err != nil {
		return st, err
	}
	db.node.SetResume(st)
	if e := db.node.Engine(); e != nil {
		e.Seed(st.LastSerial, st.MaxCommitTS)
	}
	return st, nil
}

// Close shuts the node down gracefully, draining transactions and
// syncing the log.
func (db *DB) Close() error {
	err := db.node.Close()
	if cerr := db.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash kills the node abruptly (testing failure scenarios).
func (db *DB) Crash() { db.node.Crash() }

func (db *DB) String() string {
	return fmt.Sprintf("rodain.DB{%s %s}", db.node.Name(), db.node.Mode())
}
