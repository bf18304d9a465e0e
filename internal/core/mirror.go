package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
// order as one frame of stored-log bytes per cohort, checks the frame a
// whole group at a time (wal.NextGroup) and feeds each group to a
// wal.Replayer. The replayer checks that commits arrive at contiguous
// serials and applies each group to the database copy, which therefore
// only ever sees a transaction whose commit record has arrived (so the
// mirror never needs to undo anything). The frame's
// bytes are stored to the log as received, and its commits, already
// applied, acknowledged; the log is synced to disk asynchronously — the
// disk write is not synchronized with transaction commits.
type MirrorEngine struct {
	cfg Config
	db  *store.Store
	log logstore.Store

	// from is the replay position the database holds before the first
	// Run (where the node's recovery left it); set before Run.
	from wal.RecoverStats

	mu     sync.Mutex
	rp     *wal.Replayer // the current or last session's; nil before the first Run
	synced atomic.Bool   // the session's state transfer is replayed through its sync point
	logErr error         // first log-device failure; fails the session

	// held is a state transfer's bytes as received (one checkpoint
	// group) and the groups after it, stored only once the replay reaches
	// the sync point: before that the image may hold part of a group the
	// log has not got, and a replay of the log would install it as
	// committed. Session goroutine only.
	held []byte

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

// stats reads the replayer's position: from before the first session.
func (m *MirrorEngine) stats() wal.RecoverStats {
	m.mu.Lock()
	rp := m.rp
	m.mu.Unlock()
	if rp == nil {
		return m.from
	}
	return rp.Stats()
}

// LastSerial reports the validation order of the last transaction applied
// to the database copy — the replay position a takeover or rejoin
// resumes from. The copy holds every group up to it, and no later one.
func (m *MirrorEngine) LastSerial() uint64 { return m.stats().LastSerial }

// MaxCommitTS reports the largest commit timestamp received; a takeover
// seeds its concurrency controller above it.
func (m *MirrorEngine) MaxCommitTS() uint64 { return m.stats().MaxCommitTS }

// Applied reports how many transactions the current (or last) session
// has handed to the database copy.
func (m *MirrorEngine) Applied() uint64 { return uint64(m.stats().Applied) }

// Synced reports whether the current (or last) session installed a state
// transfer and replayed the live stream up to its sync point, the last
// serial the primary had issued when the image's copy ended. Only a
// synced mirror may take over.
func (m *MirrorEngine) Synced() bool { return m.synced.Load() }

// Run drives one mirror session over conn until the primary fails or
// the session is closed. It sends the hello (with the mirror's current
// replay position), processes an optional state transfer, then consumes
// the log stream. The returned error is ErrPrimaryDown for failures that
// should trigger takeover; a commit out of serial order, or a state
// transfer whose watermarks do not cover its serial, is an error wrapping
// wal.ErrCorrupt.
func (m *MirrorEngine) Run(conn *transport.Conn) (err error) {
	defer conn.Close()

	prev := m.stats()
	hello := prev.LastSerial
	if err := conn.Send(&transport.Msg{Type: transport.MsgHello, Serial: hello}); err != nil {
		return fmt.Errorf("%w: hello: %v", ErrPrimaryDown, err)
	}

	// Receive, apply, ack and the stored log stay ordered on this
	// goroutine: a group is in the database copy before its commit is
	// acknowledged, so a takeover always promotes a fully-applied
	// database. The replayer takes only whole groups, so a group whose
	// commit record never arrived is never applied: when the Primary Node
	// fails it is considered aborted.
	rp := wal.NewReplayer(m.db)
	rp.Restart(hello, prev.MaxCommitTS)
	m.mu.Lock()
	m.rp = rp
	m.mu.Unlock()
	m.synced.Store(false)
	m.held = nil

	// Background log flusher: "the data storing to the disk is not
	// synchronized with the transaction commits".
	m.stopFlush = make(chan struct{})
	m.flushWG.Add(1)
	go m.flusher()
	defer func() {
		close(m.stopFlush)
		m.flushWG.Wait()
		// Final sync so a clean shutdown loses nothing. The session is
		// already ending; surface a failure rather than mask the
		// original error.
		if serr := m.log.Sync(); serr != nil && err == nil {
			err = fmt.Errorf("core: mirror: final log sync: %v", serr)
		}
	}()

	watchdog := time.Duration(m.cfg.HeartbeatMisses) * m.cfg.HeartbeatEvery
	// Until the log stream is live (state transfer done, heartbeats
	// flowing) the primary may legitimately be busy streaming a large
	// image; use a generous deadline.
	handshake := 10 * time.Second
	if handshake < watchdog {
		handshake = watchdog
	}
	live := false

	// Ack coalescing: the shipper treats acknowledgments as cumulative
	// (an ack for serial n releases every commit with serial <= n), so
	// while more frames are still buffered the mirror only notes the
	// highest complete serial and sends one MsgAck when the read buffer
	// drains (or after the frame that brings the count to ackCoalesceMax
	// commits, to bound how long a waiter rides along). One control frame per wire batch
	// instead of one per commit record. Only a commit the replayer
	// accepted — the next serial of the stream — is ever acknowledged, so
	// the cumulative ack never covers a serial this node does not hold.
	// After a state transfer at s nothing is acked before the replay
	// reaches the sync point syncAt; the first ack then covers s, and the
	// held log is stored. Without a transfer syncAt stays 0 and nothing
	// is held.
	var (
		pendingAckSerial uint64 // highest commit serial not yet acked
		pendingAckCount  int    // commit records covered by it
		syncAt           uint64
	)
	reached := func(serial uint64, n int) error {
		if n == 0 || serial < syncAt {
			return nil
		}
		pendingAckSerial = serial
		pendingAckCount += n
		if m.held == nil {
			return nil
		}
		// This node could not replay alone after a crash without the
		// image: fail the session rather than run with silently degraded
		// durability.
		if err := m.appendLog(m.held); err != nil {
			return fmt.Errorf("core: mirror: persist state transfer: %v", err)
		}
		m.held = nil
		m.synced.Store(true)
		return nil
	}

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
		// the frame goes straight back to the pool.
		switch msg.Type {
		case transport.MsgPing:
			transport.ReleaseMsg(msg)
			live = true
			if err := conn.SendControl(transport.MsgPong, 0); err != nil {
				return fmt.Errorf("%w: pong: %v", ErrPrimaryDown, err)
			}
		case transport.MsgSnapshotBegin:
			serial := msg.Serial
			transport.ReleaseMsg(msg)
			if syncAt, err = m.installImage(conn, rp, serial, handshake); err != nil {
				return err
			}
			if syncAt == serial {
				if err := reached(serial, 1); err != nil {
					return err
				}
			}
		case transport.MsgRecord:
			live = true
			last, n, err := m.receive(rp, msg.Payload)
			transport.ReleaseMsg(msg)
			// Groups accepted before a failure are applied and stored:
			// they still count toward the sync point.
			if rerr := reached(last, n); rerr != nil {
				return rerr
			}
			if err != nil {
				return fmt.Errorf("core: mirror: %w", err)
			}
		default:
			typ := msg.Type
			transport.ReleaseMsg(msg)
			return fmt.Errorf("core: mirror: unexpected message %v", typ)
		}
		// Flush the coalesced ack before blocking on the next receive.
		// Buffered() > 0 means more frames are already on this side (the
		// primary flushed them, so they arrive without needing the ack
		// first) — keep coalescing; == 0 means the wire is drained and
		// the primary may be waiting on us.
		if pendingAckCount > 0 && (conn.Buffered() == 0 || pendingAckCount >= ackCoalesceMax) {
			if err := conn.SendControl(transport.MsgAck, pendingAckSerial); err != nil {
				return fmt.Errorf("%w: ack: %v", ErrPrimaryDown, err)
			}
			pendingAckSerial, pendingAckCount = 0, 0
		}
	}
}

// ackCoalesceMax bounds how many commit records one cumulative ack may
// cover, checked once per frame: even in a continuous burst the primary
// hears back at least once per frame that reaches it.
const ackCoalesceMax = 32

// installImage receives and installs the state transfer opened at
// serial: a fuzzy checkpoint whose every stripe watermark must be ≥
// serial, or it misses commits nobody will ship. The chunk frames are
// read into the held log first — the transfer is stored as received —
// and the image is decoded from those bytes; nothing may follow its
// group. rp installs it and continues after serial with its watermarks,
// so a live group skips writes a stripe image already holds. It returns
// the sync point: the serial the end frame carries, an upper bound on any
// write the image holds (never below its max watermark).
func (m *MirrorEngine) installImage(conn *transport.Conn, rp *wal.Replayer, serial uint64, timeout time.Duration) (uint64, error) {
	img, end, err := receiveTransfer(conn, timeout)
	if err != nil {
		return 0, err
	}
	ck, n, err := wal.DecodeCheckpoint(img)
	if err == nil && n < len(img) {
		err = fmt.Errorf("%w: %d bytes past the checkpoint", wal.ErrCorrupt, len(img)-n)
	}
	if err == nil && ck.Watermarks.Min() < serial {
		err = fmt.Errorf("%w: stripe watermark %d below transfer serial %d", wal.ErrCorrupt, ck.Watermarks.Min(), serial)
	}
	if err != nil {
		return 0, fmt.Errorf("core: mirror: state transfer: %w", err)
	}
	rp.Install(ck)
	rp.Restart(serial, 0)
	m.held = img
	return max(end, ck.LastSerial), nil
}

// receiveTransfer reads a state transfer's chunk frames up to
// MsgSnapshotEnd and returns their bytes, joined once into a buffer of
// the exact size, and the end frame's serial. A connection failure wraps
// ErrPrimaryDown.
func receiveTransfer(conn *transport.Conn, timeout time.Duration) ([]byte, uint64, error) {
	var chunks [][]byte
	for {
		conn.SetRecvDeadline(time.Now().Add(timeout)) //rodain:allow wallclock (socket I/O deadlines are wall-clock by nature)
		msg, err := conn.Recv()
		if err != nil {
			return nil, 0, fmt.Errorf("%w: state transfer: %v", ErrPrimaryDown, err)
		}
		switch msg.Type {
		case transport.MsgSnapshotChunk:
			chunks = append(chunks, msg.Payload)
		case transport.MsgSnapshotEnd:
			return bytes.Join(chunks, nil), msg.Serial, nil
		default:
			return nil, 0, fmt.Errorf("core: mirror: unexpected message %v in state transfer", msg.Type)
		}
	}
}

// receive checks one log frame — whole groups' stored-log bytes in
// serial order — a group at a time (wal.NextGroup), feeds each group to
// rp, and stores the bytes of the groups rp accepted exactly
// as received: to the log, or before a transfer's sync point to the held
// log. It returns the last serial accepted and how many groups were. A
// damaged record, a record of another transaction inside a group, a
// serial gap or a frame ending inside a group is an
// error wrapping wal.ErrCorrupt; the groups before it are still stored,
// so the log always equals what was applied. A log-device failure (this
// append, or an earlier background flush) is returned too: the mirror
// must not keep acknowledging commits it cannot replay from its own
// disk. The database copy is still good then, but the stored log no
// longer is.
func (m *MirrorEngine) receive(rp *wal.Replayer, frame []byte) (last uint64, n int, err error) {
	end := 0 // frame[:end] holds the accepted groups
	for end < len(frame) {
		k, commit, gerr := wal.NextGroup(frame[end:])
		if gerr != nil {
			err = fmt.Errorf("%w: no whole group at byte %d of a %d-byte frame: %v", wal.ErrCorrupt, end, len(frame), gerr)
			break
		}
		if err = rp.Add(frame[end : end+k]); err != nil {
			break
		}
		end, last, n = end+k, commit.SerialOrder, n+1
	}
	if m.held != nil {
		m.held = append(m.held, frame[:end]...)
	} else if lerr := m.appendLog(frame[:end]); lerr != nil {
		err = fmt.Errorf("log store: %v", lerr)
	}
	return last, n, err
}

// appendLog appends p to the log device, or returns the device's first
// failure, which sticks.
func (m *MirrorEngine) appendLog(p []byte) error {
	m.mu.Lock()
	logErr := m.logErr
	m.mu.Unlock()
	if logErr == nil {
		logErr = m.log.Append(p)
	}
	if logErr != nil {
		m.mu.Lock()
		if m.logErr == nil {
			m.logErr = logErr
		}
		m.mu.Unlock()
	}
	return logErr
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
