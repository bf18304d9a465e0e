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
// the primary's log stream, which the shipper sends in true validation
// order, and feeds it to a wal.Replayer. The replayer groups records by
// transaction, checks that commits arrive at contiguous serials, and
// applies each transaction's updates to the database copy only once its
// commit record has been seen (so the mirror never needs to undo
// anything). Each commit is acknowledged once its group is complete, and
// the group's records are stored to disk asynchronously — the disk write
// is not synchronized with transaction commits.
type MirrorEngine struct {
	cfg Config
	db  *store.Store
	log logstore.Store

	mu     sync.Mutex
	rp     *wal.Replayer // the current or last session's; nil before the first Run
	logErr error         // first log-device failure; fails the session

	logBuf []byte // session-goroutine scratch for one group's log bytes

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

// stats reads the replayer's position: zero before the first session.
func (m *MirrorEngine) stats() wal.RecoverStats {
	m.mu.Lock()
	rp := m.rp
	m.mu.Unlock()
	if rp == nil {
		return wal.RecoverStats{}
	}
	return rp.Stats()
}

// LastSerial reports the validation order of the last transaction handed
// to the database copy — the replay position a takeover or rejoin
// resumes from (Run drains the apply pool before it returns).
func (m *MirrorEngine) LastSerial() uint64 { return m.stats().LastSerial }

// MaxCommitTS reports the largest commit timestamp received; a takeover
// seeds its concurrency controller above it.
func (m *MirrorEngine) MaxCommitTS() uint64 { return m.stats().MaxCommitTS }

// Applied reports how many transactions the current (or last) session
// has handed to the database copy.
func (m *MirrorEngine) Applied() uint64 { return uint64(m.stats().Applied) }

// Run drives one mirror session over conn until the primary fails or
// the session is closed. It sends the hello (with the mirror's current
// replay position), processes an optional state transfer, then consumes
// the log stream. The returned error is ErrPrimaryDown for failures that
// should trigger takeover; a commit out of serial order is an error
// wrapping wal.ErrCorrupt.
func (m *MirrorEngine) Run(conn *transport.Conn) (err error) {
	defer conn.Close()

	prev := m.stats()
	hello := prev.LastSerial
	if err := conn.Send(&transport.Msg{Type: transport.MsgHello, Serial: hello}); err != nil {
		return fmt.Errorf("%w: hello: %v", ErrPrimaryDown, err)
	}

	// Receive, ack and the stored log stay ordered on this goroutine; the
	// database apply fans out over the replayer's pool. Closing it drains
	// the pool, so a takeover always promotes a fully-applied database,
	// and discards transactions without a commit record: when the
	// Primary Node fails they are considered aborted.
	rp := wal.NewReplayer(m.db, wal.DefaultRecoverWorkers(), nil)
	rp.Restart(hello, prev.MaxCommitTS)
	m.mu.Lock()
	m.rp = rp
	m.mu.Unlock()
	defer rp.Close()

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
	// notes the highest complete serial and sends one MsgAck when the
	// read buffer drains (or after ackCoalesceMax commits, to bound how
	// long a waiter rides along). One control frame per wire batch
	// instead of one per commit record. Only a commit the replayer
	// accepted — the next serial of the stream — is ever acknowledged, so
	// the cumulative ack never covers a serial this node does not hold.
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
			rp.Wait() // no in-flight group may race the reload
			m.db.LoadSnapshot(snap)
			rp.Restart(serial, maxWriteTS(snap))
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
			g, err := m.receive(rp, rec)
			if err != nil {
				return fmt.Errorf("core: mirror: %w", err)
			}
			if g != nil {
				pendingAckSerial = g.SerialOrder()
				pendingAckCount++
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
				return fmt.Errorf("%w: ack: %v", ErrPrimaryDown, err)
			}
			pendingAckSerial, pendingAckCount = 0, 0
		}
	}
}

// ackCoalesceMax bounds how many commit records one cumulative ack may
// cover: even in a continuous burst the primary hears back at least
// this often.
const ackCoalesceMax = 32

// receive feeds one record to rp. When the record completes a group —
// a commit at the stream's next serial — the group is already scheduled
// on the replayer's pool, and its records (in validation order) are
// appended to the log buffer here; the group is returned for the ack. A
// log-device failure (this append, or an earlier background flush) is
// returned: the mirror must not keep acknowledging commits it cannot
// replay from its own disk. The database copy is still good then, but
// the stored log no longer is.
func (m *MirrorEngine) receive(rp *wal.Replayer, rec *wal.Record) (*wal.Group, error) {
	g, err := rp.Add(rec)
	if g == nil {
		return nil, err
	}
	m.logBuf = g.AppendEncoded(m.logBuf[:0])
	m.mu.Lock()
	logErr := m.logErr
	m.mu.Unlock()
	if logErr == nil {
		logErr = m.log.Append(m.logBuf)
	}
	if logErr != nil {
		m.mu.Lock()
		if m.logErr == nil {
			m.logErr = logErr
		}
		m.mu.Unlock()
		return nil, fmt.Errorf("log store: %v", logErr)
	}
	return g, nil
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
