package core

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/logstore"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
)

// ErrNotServing reports a transaction submitted to a node that is not
// (yet) a primary — transactions are executed only on the Primary Node.
var ErrNotServing = errors.New("core: node is not serving transactions")

// EventKind classifies node role-change events.
type EventKind int

// Node events.
const (
	// EventMirrorAttached: the state transfer to a mirror has been sent
	// and log shipping is live; commits now wait on the mirror, not the
	// disk.
	EventMirrorAttached EventKind = iota
	// EventMirrorLost: the mirror connection failed; the node switched
	// to transient mode, back on the single-node commit path it was
	// served with (direct disk logging under LogDisk).
	EventMirrorLost
	// EventTakeover: this mirror node detected primary failure and is
	// now serving as transient primary.
	EventTakeover
	// EventCommitFailed: a commit could be made stable on no log path.
	// The durable watermark has stopped below it, so the node answers
	// every later update with ErrNodeFailure until it is restarted or
	// its mirror takes over.
	EventCommitFailed
)

func (k EventKind) String() string {
	switch k {
	case EventMirrorAttached:
		return "mirror-attached"
	case EventMirrorLost:
		return "mirror-lost"
	case EventTakeover:
		return "takeover"
	case EventCommitFailed:
		return "commit-failed"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a node role-change notification.
type Event struct {
	Kind   EventKind
	Detail string
	When   time.Time
}

// Node ties the pieces into one RODAIN node: the execution engine, the
// replication endpoints, and the role state machine (primary / mirror /
// transient primary). A failed node always rejoins as mirror; the
// database server role only moves when the current server dies.
type Node struct {
	cfg  Config
	name string
	db   *store.Store
	log  logstore.Store

	// The role is read from engine and shipper (see Mode); it changes
	// only in serveLocked, useSoloLocked and attachMirror's swap.
	mu         sync.Mutex
	engine     *Engine
	solo       Committer // the engine's single-node commit path, in soloMode
	soloMode   LogMode
	mirror     *MirrorEngine
	listener   *transport.Listener
	shipper    *MirrorShipper
	mirrorConn *transport.Conn // the upstream connection while in mirror mode
	ckpts      []*CheckpointScheduler
	closed     bool
	// resume is the replay position the node's history ends at: where
	// recovery left the database (SetResume), and after a takeover the
	// mirror's. An
	// engine serveLocked builds continues after it, and the first mirror
	// session's hello carries it.
	resume wal.RecoverStats

	events chan Event
	wg     sync.WaitGroup

	// Checkpoint cycle state: one fuzzy checkpoint at a time, with the
	// per-stripe encoding cache that makes steady-state cycles
	// incremental.
	ckptMu    sync.Mutex
	ckptCache []stripeCache
	ckptPause metrics.Histogram
	ckptBytes metrics.IntDist
}

// NewNode creates a node over its database and local log device. The
// node does nothing until ServePrimary or RunMirror is called.
func NewNode(name string, cfg Config, db *store.Store, log logstore.Store) *Node {
	return &Node{
		cfg:    cfg.withDefaults(),
		name:   name,
		db:     db,
		log:    log,
		events: make(chan Event, 64),
	}
}

// Name reports the node's name.
func (n *Node) Name() string { return n.name }

// DB exposes the node's database.
func (n *Node) DB() *store.Store { return n.db }

// Mode reports the node's current role: a mirror until it serves, then
// a primary while it ships to a mirror and transient otherwise.
func (n *Node) Mode() Mode {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.engine == nil:
		return ModeMirror
	case n.shipper != nil:
		return ModePrimary
	default:
		return ModeTransient
	}
}

// Events delivers role-change notifications. The channel is buffered;
// events are dropped rather than blocking the node.
func (n *Node) Events() <-chan Event { return n.events }

// Engine returns the execution engine, nil while the node is a mirror.
func (n *Node) Engine() *Engine {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.engine
}

func (n *Node) emit(kind EventKind, detail string) {
	select {
	case n.events <- Event{Kind: kind, Detail: detail, When: time.Now()}: //rodain:allow wallclock (observability timestamp on an exported event, not engine control flow)
	default:
	}
}

// ServePrimary starts the node as the database server. It begins in
// transient mode, committing on the single-node path logMode selects —
// LogDisk (logs to its own disk), LogDiscard (disk off) or LogNone (no
// logs at all) — switches to mirror shipping when a mirror connects to
// listenAddr, and returns to logMode whenever it has no mirror. Pass
// listenAddr "" to run without a replication endpoint (pure single-node
// configurations).
func (n *Node) ServePrimary(listenAddr string, logMode LogMode) error {
	if logMode == LogShip {
		return fmt.Errorf("core: a primary starts in a single-node mode; shipping begins when a mirror attaches")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrStopped
	}
	if n.engine != nil {
		return fmt.Errorf("core: node %s already serving", n.name)
	}
	return n.serveLocked(logMode, listenAddr)
}

// serveLocked makes the node the database server: an engine over its
// single-node committer in logMode, seeded past n.resume so its first
// commit continues the history, and, unless listenAddr is "", the
// replication listener a mirror joins on. A commit that fails for good
// is reported as EventCommitFailed. The engine serves even if the
// listener fails to start. Caller holds n.mu, and no transaction can
// reach the engine before n.engine is published under it.
func (n *Node) serveLocked(logMode LogMode, listenAddr string) error {
	n.solo, n.soloMode = buildCommitter(logMode, n.log, n.cfg), logMode
	n.engine = NewEngine(n.cfg, n.db, n.solo, logMode)
	n.engine.Seed(n.resume.LastSerial, n.resume.MaxCommitTS)
	n.engine.onCommitFailure = func(err error) { n.emit(EventCommitFailed, err.Error()) }
	if listenAddr == "" {
		return nil
	}
	l, err := transport.Listen(listenAddr)
	if err != nil {
		return err
	}
	n.listener = l
	n.wg.Add(1)
	go n.acceptMirrors()
	return nil
}

// ReplAddr reports the replication listener address ("" if none).
func (n *Node) ReplAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr()
}

// acceptMirrors admits (re)joining mirrors, one session at a time.
func (n *Node) acceptMirrors() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.attachMirror(conn)
	}
}

// attachMirror performs the handshake and state transfer for a joining
// mirror and switches the commit path to log shipping.
func (n *Node) attachMirror(conn *transport.Conn) {
	conn.SetRecvDeadline(time.Now().Add(5 * time.Second)) //rodain:allow wallclock (socket I/O deadlines are wall-clock by nature)
	hello, err := conn.Recv()
	if err != nil || hello.Type != transport.MsgHello {
		conn.Close()
		return
	}
	conn.SetRecvDeadline(time.Time{})

	n.mu.Lock()
	if n.closed || n.engine == nil {
		n.mu.Unlock()
		conn.Close()
		return
	}
	if old := n.shipper; old != nil {
		// Replace the previous mirror session: its un-acked commits go
		// to the single-node path before it closes.
		n.useSoloLocked()
		n.mu.Unlock()
		old.Close()
		n.mu.Lock()
	}
	engine := n.engine
	n.mu.Unlock()

	// The freeze only swaps the commit path at serial s. Its wait for
	// in-flight write phases makes every stripe watermark read after it
	// ≥ s, so the image covers every commit the shipper will not ship.
	// The swap waits out a cohort already on the disk; the disk's queued
	// commits, all at or below s, are handed to the shipper, which
	// reports them stable once the mirror acknowledges the transfer.
	var (
		serial  uint64
		shipper *MirrorShipper
	)
	engine.Controller().WithFrozen(func(lastSerial uint64) {
		serial = lastSerial
		shipper = NewMirrorShipper(conn, serial+1, ShipperOptions{
			AckTimeout: n.cfg.AckTimeout,
			Heartbeat:  n.cfg.HeartbeatEvery,
			MaxCohort:  n.cfg.MaxCohort,
			Clock:      n.cfg.Clock,
			OnFailure:  func() { n.mirrorLost(shipper) },
		})
		engine.SetCommitter(shipper, LogShip)
	})

	n.mu.Lock()
	n.shipper = shipper
	n.mu.Unlock()

	// Commits queue in the shipper while the image streams.
	st, err := n.sendImage(conn, serial, n.cfg.AckTimeout)
	if err != nil {
		shipper.fail()
		return
	}
	shipper.Start()
	n.emit(EventMirrorAttached, fmt.Sprintf("serial=%d objects=%d", serial, st.Records))
}

// sendImage streams the state transfer for a session starting after
// serial: one fuzzy checkpoint cycle in chunk frames, bracketed by
// MsgSnapshotBegin{serial} and MsgSnapshotEnd carrying the image's sync
// point (CheckpointStats.Issued). Each frame must leave within timeout
// (the ack timeout: a mirror that accepts no frame for that long is
// down), so a joiner that stops reading fails the session rather than
// hold the checkpoint lock.
func (n *Node) sendImage(conn *transport.Conn, serial uint64, timeout time.Duration) (CheckpointStats, error) {
	cw := chunkWriter{conn, timeout}
	defer conn.SetSendDeadline(time.Time{})
	if err := cw.send(&transport.Msg{Type: transport.MsgSnapshotBegin, Serial: serial}); err != nil {
		return CheckpointStats{}, err
	}
	// Buffered so the checkpointer's small writes share frames.
	bw := bufio.NewWriterSize(cw, snapshotChunk)
	st, err := n.FuzzyCheckpoint(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = cw.send(&transport.Msg{Type: transport.MsgSnapshotEnd, Serial: st.Issued})
	}
	return st, err
}

// snapshotChunk bounds one state-transfer frame.
const snapshotChunk = 64 << 10

// chunkWriter sends each write as MsgSnapshotChunk frames of at most
// snapshotChunk bytes, each under a send deadline of timeout.
type chunkWriter struct {
	conn    *transport.Conn
	timeout time.Duration
}

func (w chunkWriter) Write(p []byte) (int, error) {
	for off := 0; off < len(p); off += snapshotChunk {
		if err := w.send(&transport.Msg{Type: transport.MsgSnapshotChunk, Payload: p[off:min(off+snapshotChunk, len(p))]}); err != nil {
			return off, err
		}
	}
	return len(p), nil
}

func (w chunkWriter) send(m *transport.Msg) error {
	w.conn.SetSendDeadline(time.Now().Add(w.timeout)) //rodain:allow wallclock (socket I/O deadlines are wall-clock by nature)
	return w.conn.Send(m)
}

// mirrorLost switches the node back to transient mode when the session
// of s fails: the Log Writer commits on the single-node path again (the
// paper's direct disk logging under LogDisk), and s hands its un-acked
// commits over.
func (n *Node) mirrorLost(s *MirrorShipper) {
	n.mu.Lock()
	if n.closed || n.shipper != s {
		n.mu.Unlock()
		return
	}
	n.useSoloLocked()
	mode := n.soloMode
	n.mu.Unlock()
	n.emit(EventMirrorLost, "switched to "+mode.String()+" logging")
}

// useSoloLocked returns the engine to its single-node committer, in the
// mode it was served with; the current shipper hands its un-acked
// commits over. Caller holds n.mu.
func (n *Node) useSoloLocked() {
	n.engine.SetCommitter(n.solo, n.soloMode)
	n.shipper = nil
}

// RunMirror runs the node as the hot stand-by of the primary at
// primaryAddr. It blocks until either the node is closed (returns nil)
// or the primary fails — in which case the node takes over as transient
// primary, starts its replication listener on takeoverListen (so the
// recovered peer can rejoin as mirror), and returns nil — but only once
// the mirror has synced (MirrorEngine.Synced); before that its database
// is empty, stale or torn, and RunMirror returns an error instead. Any
// other error is returned.
func (n *Node) RunMirror(primaryAddr, takeoverListen string) error {
	conn, err := dialRetry(primaryAddr, 5*time.Second, n.cfg.Clock)
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return ErrStopped
	}
	n.mirror = NewMirrorEngine(n.cfg, n.db, n.log)
	n.mirror.from = n.resume
	n.mirrorConn = conn
	mirror := n.mirror
	n.mu.Unlock()

	err = mirror.Run(conn)

	n.mu.Lock()
	n.mirrorConn = nil
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil
	}
	if errors.Is(err, ErrPrimaryDown) && mirror.Synced() {
		return n.takeover(takeoverListen)
	}
	return err
}

// takeover promotes a mirror to transient primary: transactions execute
// here now, with logs stored directly to disk before commit.
func (n *Node) takeover(listenAddr string) error {
	n.mu.Lock()
	if n.closed || n.engine != nil {
		n.mu.Unlock()
		return nil
	}
	n.resume = n.mirror.stats()
	serial := n.resume.LastSerial
	err := n.serveLocked(LogDisk, listenAddr)
	n.mu.Unlock()
	n.emit(EventTakeover, fmt.Sprintf("resuming from serial %d", serial))
	return err
}

// Execute submits a transaction to the node and waits until its result
// is durable; it fails with ErrNotServing on a mirror.
func (n *Node) Execute(req Request) error {
	engine := n.Engine()
	if engine == nil {
		return ErrNotServing
	}
	return engine.Execute(req)
}

// Submit runs a transaction through validation without waiting for its
// commit to become stable (see Engine.Submit); it fails with
// ErrNotServing on a mirror.
func (n *Node) Submit(req Request) (Release, error) {
	engine := n.Engine()
	if engine == nil {
		return Release{}, ErrNotServing
	}
	return engine.Submit(req)
}

// Close shuts the node down gracefully: outstanding transactions drain,
// the log is synced, connections close.
func (n *Node) Close() error {
	if !n.shutdown(false) {
		return nil
	}
	return n.log.Sync()
}

// Crash kills the node abruptly: connections drop, nothing is drained or
// synced. It models the failures of the paper's availability story.
func (n *Node) Crash() { n.shutdown(true) }

// shutdown stops the node once, reporting whether this call did. Its
// checkpoint schedulers stop before the engine drains. A graceful one
// lets the engine drain its commits through the mirror before the
// session closes; a crash drops the session first.
func (n *Node) shutdown(crash bool) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	n.closed = true
	listener, mirrorConn, ckpts := n.listener, n.mirrorConn, n.ckpts
	engine, shipper, solo := n.engine, n.shipper, n.solo
	n.mu.Unlock()

	if listener != nil {
		listener.Close()
	}
	if mirrorConn != nil {
		mirrorConn.Close()
	}
	if shipper != nil && crash {
		shipper.Close()
	}
	for _, s := range ckpts {
		s.Stop()
	}
	if engine != nil {
		engine.Stop()
	}
	if shipper != nil {
		shipper.Close()
	}
	n.wg.Wait()
	if solo != nil {
		solo.Close() // its writer stays parked while a mirror holds the path
	}
	return true
}

// dialRetry dials addr until it answers or the budget runs out on
// clock — the peer may still be starting up.
func dialRetry(addr string, budget time.Duration, clock simtime.Clock) (*transport.Conn, error) {
	deadline := clock.Now().Add(budget)
	for {
		conn, err := transport.Dial(addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if clock.Now() > deadline {
			return nil, fmt.Errorf("core: dial %s: %w", addr, err)
		}
		simtime.SleepOn(clock, 20*time.Millisecond)
	}
}
