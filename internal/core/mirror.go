package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/logstore"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
)

// ErrPrimaryDown reports that the mirror lost its primary (connection
// error or watchdog timeout): the trigger for takeover.
var ErrPrimaryDown = errors.New("core: primary down")

// MirrorEngine is the hot stand-by side of a RODAIN pair: it receives
// the primary's log stream, acknowledges every commit record immediately
// on arrival, reorders records into true validation order, applies each
// transaction's updates to its database copy only once the commit record
// has been seen (so it never needs to undo anything), and stores the
// reordered log to disk asynchronously — the disk write is not
// synchronized with transaction commits.
type MirrorEngine struct {
	cfg Config
	db  *store.Store
	log logstore.Store

	mu           sync.Mutex
	lastSerial   uint64 // last applied validation order
	maxCommitTS  uint64
	applied      uint64
	ackedCommits uint64
	logBuf       []byte
	opsBuf       []store.Op // group-apply scratch, reused per group
	logErr       error      // first log-device failure; fails the session

	// applier, when non-nil, fans the database apply out over a
	// conflict-aware worker pool; receive/ack and the stored log stay
	// strictly ordered on the session goroutine. Only the session
	// goroutine touches it.
	applier *wal.ParallelApplier

	stopFlush chan struct{}
	flushWG   sync.WaitGroup
}

// NewMirrorEngine returns a mirror over db whose received log is stored
// to log.
func NewMirrorEngine(cfg Config, db *store.Store, log logstore.Store) *MirrorEngine {
	return &MirrorEngine{cfg: cfg.withDefaults(), db: db, log: log}
}

// DB exposes the database copy.
func (m *MirrorEngine) DB() *store.Store { return m.db }

// LastSerial reports the validation order of the last applied
// transaction — the replay position a takeover or rejoin resumes from.
func (m *MirrorEngine) LastSerial() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSerial
}

// MaxCommitTS reports the largest commit timestamp applied; a takeover
// seeds its concurrency controller above it.
func (m *MirrorEngine) MaxCommitTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxCommitTS
}

// Applied reports how many transactions have been applied.
func (m *MirrorEngine) Applied() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applied
}

// Run drives one mirror session over conn until the primary fails or
// the session is closed. It sends the hello (with the mirror's current
// replay position), processes an optional state transfer, then consumes
// the log stream. The returned error is ErrPrimaryDown for failures that
// should trigger takeover.
func (m *MirrorEngine) Run(conn *transport.Conn) (err error) {
	defer conn.Close()

	m.mu.Lock()
	hello := m.lastSerial
	m.mu.Unlock()
	if err := conn.Send(&transport.Msg{Type: transport.MsgHello, Serial: hello}); err != nil {
		return fmt.Errorf("%w: hello: %v", ErrPrimaryDown, err)
	}

	// Parallel apply sink: commit acknowledgment and log storage stay
	// synchronous and ordered below, but the database apply itself fans
	// out so the mirror's copy keeps up with a multicore primary. Closed
	// (drained) before Run returns, so a takeover always promotes a
	// fully-applied database.
	if workers := m.cfg.MirrorApplyWorkers; workers > 1 {
		m.applier = wal.NewParallelApplier(m.db, workers, false)
		defer func() {
			m.applier.Close()
			m.applier = nil
		}()
	}

	// Background log flusher: "the data storing to the disk is not
	// synchronized with the transaction commits".
	if m.cfg.MirrorSyncEvery > 0 {
		m.stopFlush = make(chan struct{})
		m.flushWG.Add(1)
		go m.flusher()
		defer func() {
			close(m.stopFlush)
			m.flushWG.Wait()
			// Final sync so a clean shutdown loses nothing. The session
			// is already ending; surface a failure rather than mask the
			// original error.
			if serr := m.log.Sync(); serr != nil && err == nil {
				err = fmt.Errorf("core: mirror: final log sync: %v", serr)
			}
		}()
	}

	reorderer := wal.NewReorderer(hello + 1)
	watchdog := time.Duration(m.cfg.HeartbeatMisses) * m.cfg.HeartbeatEvery
	// Until the log stream is live (state transfer done, heartbeats
	// flowing) the primary may legitimately be busy building and
	// shipping a multi-megabyte snapshot; use a generous deadline.
	handshake := 10 * time.Second
	if handshake < watchdog {
		handshake = watchdog
	}
	live := false

	// Ack coalescing: the shipper treats acknowledgments as cumulative
	// (an ack for serial n releases every commit with serial <= n), so
	// while more of the received batch is still buffered the mirror only
	// notes the highest commit serial seen and sends one MsgAck when the
	// read buffer drains (or after ackCoalesceMax commits, to bound how
	// long a waiter rides along). One control frame per wire batch
	// instead of one per commit record.
	var (
		pendingAckSerial uint64 // highest commit serial not yet acked
		pendingAckCount  uint64 // commit records covered by it
	)

	var snapshotBuf *bytes.Buffer // non-nil while a state transfer is in progress
	for {
		if live {
			conn.SetRecvDeadline(time.Now().Add(watchdog)) //rodain:allow wallclock (socket I/O deadlines are wall-clock by nature)
		} else {
			conn.SetRecvDeadline(time.Now().Add(handshake)) //rodain:allow wallclock (socket I/O deadlines are wall-clock by nature)
		}
		msg, err := conn.RecvPooled()
		if err != nil {
			// Discard buffered, uncommitted transactions: when the
			// Primary Node fails, transactions without a commit record
			// are considered aborted.
			reorderer.DiscardPending()
			return fmt.Errorf("%w: %v", ErrPrimaryDown, err)
		}
		// Every arm below either copies or fully decodes the payload, so
		// the frame goes straight back to the pool: the log stream is
		// consumed without a per-message allocation.
		switch msg.Type {
		case transport.MsgPing:
			transport.ReleaseMsg(msg)
			live = true
			if err := conn.SendControl(transport.MsgPong, 0); err != nil {
				return fmt.Errorf("%w: pong: %v", ErrPrimaryDown, err)
			}
		case transport.MsgSnapshotBegin:
			transport.ReleaseMsg(msg)
			snapshotBuf = new(bytes.Buffer)
		case transport.MsgSnapshotChunk:
			if snapshotBuf == nil {
				transport.ReleaseMsg(msg)
				return fmt.Errorf("core: mirror: snapshot chunk without begin")
			}
			snapshotBuf.Write(msg.Payload)
			transport.ReleaseMsg(msg)
		case transport.MsgSnapshotEnd:
			transport.ReleaseMsg(msg)
			if snapshotBuf == nil {
				return fmt.Errorf("core: mirror: snapshot end without begin")
			}
			snap, serial, err := wal.ReadCheckpoint(snapshotBuf)
			if err != nil {
				return fmt.Errorf("core: mirror: state transfer: %v", err)
			}
			if m.applier != nil {
				m.applier.Wait() // no in-flight group may race the reload
			}
			m.db.LoadSnapshot(snap)
			m.mu.Lock()
			m.lastSerial = serial
			for _, r := range snap {
				if r.WriteTS > m.maxCommitTS {
					m.maxCommitTS = r.WriteTS
				}
			}
			m.mu.Unlock()
			reorderer = wal.NewReorderer(serial + 1)
			snapshotBuf = nil
			// Persist the transferred state so this node's own disk
			// can recover without the peer. A failure here means this
			// node could not replay alone after a crash — fail the
			// session instead of running with silently degraded
			// durability.
			var cp bytes.Buffer
			if err := wal.WriteCheckpoint(&cp, snap, serial); err != nil {
				return fmt.Errorf("core: mirror: persist state transfer: %v", err)
			}
			if err := m.log.Append(cp.Bytes()); err != nil {
				return fmt.Errorf("core: mirror: persist state transfer: %v", err)
			}
		case transport.MsgRecord:
			live = true
			rec, err := wal.DecodeBytes(msg.Payload)
			transport.ReleaseMsg(msg)
			if err != nil {
				return fmt.Errorf("core: mirror: bad record: %v", err)
			}
			// Commit records are acknowledged on arrival — the signal
			// that this transaction's logs are on the mirror — but the
			// send itself is coalesced per wire batch (below).
			if rec.Type == wal.TypeCommit {
				if rec.SerialOrder > pendingAckSerial {
					pendingAckSerial = rec.SerialOrder
				}
				pendingAckCount++
			}
			groups, err := reorderer.Add(rec)
			if err != nil {
				return fmt.Errorf("core: mirror: %v", err)
			}
			for _, g := range groups {
				if err := m.apply(g); err != nil {
					// The database copy is still good, but the stored
					// log no longer is: stop acking commits this node
					// could not replay on its own.
					return fmt.Errorf("core: mirror: log store: %v", err)
				}
			}
		default:
			typ := msg.Type
			transport.ReleaseMsg(msg)
			return fmt.Errorf("core: mirror: unexpected message %v", typ)
		}
		// Flush the coalesced ack before blocking on the next receive.
		// Buffered() > 0 means more frames of this batch are already on
		// this side (the primary flushed them, so they arrive without
		// needing the ack first) — keep coalescing; == 0 means the wire
		// is drained and the primary may be waiting on us.
		if pendingAckCount > 0 && (conn.Buffered() == 0 || pendingAckCount >= ackCoalesceMax) {
			if err := conn.SendControl(transport.MsgAck, pendingAckSerial); err != nil {
				reorderer.DiscardPending()
				return fmt.Errorf("%w: ack: %v", ErrPrimaryDown, err)
			}
			m.mu.Lock()
			m.ackedCommits += pendingAckCount
			m.mu.Unlock()
			pendingAckSerial, pendingAckCount = 0, 0
		}
	}
}

// ackCoalesceMax bounds how many commit records one cumulative ack may
// cover: even in a continuous burst the primary hears back at least
// this often.
const ackCoalesceMax = 32

// apply installs one committed group into the database copy and appends
// its records (already in validation order) to the log buffer. With a
// parallel applier the database install is handed to the worker pool
// (per-object order preserved, so the drained copy is identical to a
// sequential apply); otherwise the group goes through ApplyGroup inline.
// Either way its writes become visible atomically, mirroring the
// primary's write phase, and the stored log stays in validation order.
// A log-device failure (this append, or an earlier background flush) is
// returned: the mirror must not keep acknowledging commits it cannot
// replay from its own disk.
func (m *MirrorEngine) apply(g *wal.Group) error {
	if m.applier != nil {
		m.applier.Apply(g)
	} else {
		// opsBuf needs no lock: apply only runs on the session goroutine.
		ops := m.opsBuf[:0]
		for _, w := range g.Writes {
			ops = append(ops, store.Op{ID: w.ObjectID, Value: w.AfterImage, Delete: w.Type == wal.TypeDelete, Serial: g.SerialOrder()})
		}
		m.opsBuf = ops
		m.db.ApplyGroup(ops, g.Commit.CommitTS)
	}
	m.mu.Lock()
	buf := g.AppendEncoded(m.logBuf[:0])
	m.logBuf = buf
	m.applied++
	if g.SerialOrder() > m.lastSerial {
		m.lastSerial = g.SerialOrder()
	}
	if g.Commit.CommitTS > m.maxCommitTS {
		m.maxCommitTS = g.Commit.CommitTS
	}
	logErr := m.logErr
	m.mu.Unlock()
	if logErr != nil {
		return logErr
	}
	if err := m.log.Append(buf); err != nil {
		m.mu.Lock()
		if m.logErr == nil {
			m.logErr = err
		}
		m.mu.Unlock()
		return err
	}
	return nil
}

// flusher syncs the log store periodically, off the commit path. It
// runs on the configured clock, so simulated-time runs flush on virtual
// time. A sync failure is recorded and stops the flusher: the next
// apply sees it and fails the session rather than acking commits whose
// local log can no longer reach stable media.
func (m *MirrorEngine) flusher() {
	defer m.flushWG.Done()
	t := simtime.NewTicker(m.cfg.Clock, m.cfg.MirrorSyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := m.log.Sync(); err != nil {
				m.mu.Lock()
				if m.logErr == nil {
					m.logErr = fmt.Errorf("background flush: %v", err)
				}
				m.mu.Unlock()
				return
			}
		case <-m.stopFlush:
			return
		}
	}
}
