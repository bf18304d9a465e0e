package core

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wal"
)

// MirrorShipper is the Log Writer of a primary node in normal two-node
// operation: it ships each committing transaction's redo records and
// commit record to the Mirror Node and reports the transaction stable
// when the mirror's acknowledgment arrives. Commit time contains one
// message round trip instead of a disk write.
//
// Groups are shipped in true validation order (contiguous SerialOrder),
// giving the stream the prefix property: a transaction's records — and
// the records of everything it might depend on — are on the mirror
// before its acknowledgment is sent.
//
// Commits are group-committed into cohorts by natural batching: the
// sender ships the contiguous prefix of pending groups the moment it has
// one, so every group that queued while the previous wire write was in
// flight leaves in one batch, and the mirror's cumulative ack reports
// everything up to it stable in one call. While a front end holds the
// engine's commit path open (Engine.Hold), the sender waits for the
// updates it already has in hand, up to a full batch, so a pipelined
// connection's updates leave in one frame. A batch is one MsgRecord
// frame whose payload is the groups' stored-log bytes (appendCohort),
// the same bytes the group committer writes to disk; the mirror stores
// them as received.
// No timer is armed per commit, per cohort or per serial gap.
//
// A shipper that ends — its mirror failed, or a rejoining mirror replaced
// it — hands every commit it has not seen acknowledged, shipped or still
// queued, to the node's disk committer in serial order, and forwards any
// commit that reaches it afterwards.
//
// All timing goes through one simtime.Ticker at the heartbeat interval:
// it has the sender ping an otherwise idle mirror, declares a silent
// mirror down, and fails a commit wait once the acknowledged serial has
// not advanced for AckTimeout. The sender is the only writer on the
// connection, so a wire write stuck on a mirror that stopped reading
// never delays the timeout checks. Simulated runs are therefore
// deterministic and tests can drive timeouts without real sleeps.
type MirrorShipper struct {
	conn       *transport.Conn
	ackTimeout time.Duration
	ping       time.Duration
	clock      simtime.Clock

	// The queue holds every un-acked commit; its cursor is the next
	// serial to ship, and commits below firstSerial ride in the state
	// transfer. Its cond wakes the sender.
	cohortQueue
	quit      chan struct{} // closed when the shipper fails or closes
	acked     uint64        // highest acknowledged serial
	ackedAt   simtime.Time  // when acked last advanced
	waitSince simtime.Time  // when a commit began waiting with none before it
	lastHeard simtime.Time  // last message from the mirror
	shipped   bool          // a batch went out since the last tick
	pingDue   bool          // the heartbeat asks the sender for a ping
	failed    bool
	closed    bool

	onFailure func()

	wg sync.WaitGroup

	// sender scratch, reused across batches so the steady-state shipping
	// path does not allocate: a batch's groups are encoded back to back
	// into encBuf, which is the payload of its one log frame.
	encBuf []byte
	batch  []*commit

	stats       ShipperStats
	cohortSizes metrics.IntDist
	queueDelay  metrics.Histogram // enqueue → handed to the wire
}

// ShipperStats counts shipping activity.
type ShipperStats struct {
	GroupsShipped  uint64
	RecordsShipped uint64
	BytesShipped   uint64
	Acks           uint64
	// Cohorts is the number of wire batches shipped; MaxCohort the most
	// groups any one of them carried.
	Cohorts   uint64
	MaxCohort uint64
}

// ShipperOptions parameterizes a MirrorShipper.
type ShipperOptions struct {
	// AckTimeout bounds how long a waiting commit tolerates no progress
	// in the mirror's acknowledgments (and how long the shipper tolerates
	// a silent mirror) before declaring it down. It is checked once per
	// heartbeat. Zero or negative disables the timeout.
	AckTimeout time.Duration
	// Heartbeat is the watchdog tick (default 100 ms): the mirror is
	// pinged on a tick when nothing shipped since the previous one.
	Heartbeat time.Duration
	// MaxCohort caps how many groups one wire batch may carry
	// (default DefaultMaxCohort).
	MaxCohort int
	// MaxHold is ignored: the sender never holds a cohort open.
	//
	// Deprecated: benchmark compat, remove with ROADMAP item 6.
	MaxHold time.Duration
	// Clock drives the heartbeat ticker; nil uses the wall clock.
	Clock simtime.Clock
	// OnFailure runs exactly once when the mirror connection breaks; the
	// node uses it to switch to transient (disk) mode.
	OnFailure func()
}

// NewMirrorShipper returns a shipper over an established mirror
// connection. firstSerial is the validation order of the first group
// this mirror session will carry (lastSerial at attach time + 1). Groups
// below it are covered by the session's state transfer: they are never
// shipped, and are stable once the mirror acknowledges them.
func NewMirrorShipper(conn *transport.Conn, firstSerial uint64, opts ShipperOptions) *MirrorShipper {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 100 * time.Millisecond
	}
	if opts.MaxCohort <= 0 {
		opts.MaxCohort = DefaultMaxCohort
	}
	if opts.Clock == nil {
		opts.Clock = simtime.NewWallClock()
	}
	s := &MirrorShipper{
		conn:        conn,
		ackTimeout:  opts.AckTimeout,
		ping:        opts.Heartbeat,
		clock:       opts.Clock,
		cohortQueue: cohortQueue{maxCohort: opts.MaxCohort},
		quit:        make(chan struct{}),
		onFailure:   opts.OnFailure,
	}
	s.init(firstSerial, func() {
		if len(s.pending) == 1 {
			s.waitSince = s.clock.Now() // no commit was waiting: the ack clock starts here
		}
	})
	return s
}

// Start launches the sender, the acknowledgment reader and the heartbeat.
// It is separate from construction so a rejoining mirror can receive its
// state transfer on the same connection first; the mirror is silent
// until then, so the liveness and ack clocks start here.
func (s *MirrorShipper) Start() {
	s.mu.Lock()
	s.lastHeard = s.clock.Now()
	s.ackedAt = s.lastHeard
	s.mu.Unlock()
	s.wg.Add(3)
	go s.sender()
	go s.ackReader()
	go s.heartbeat(simtime.NewTicker(s.clock, s.ping))
}

// Commit implements Committer for a direct caller: it enqueues g and
// waits until the mirror has acknowledged its commit record. The engine
// enqueues without waiting.
func (s *MirrorShipper) Commit(g *wal.Group) error { return waitStable(s, s.clock, g) }

// sender ships pending cohorts in contiguous serial order, and the pings
// the heartbeat asks for while idle.
func (s *MirrorShipper) sender() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.due() && !s.pingDue && !s.failed && !s.closed {
			s.cond.Wait()
		}
		if s.failed || s.closed {
			s.mu.Unlock()
			return
		}
		s.pingDue = false // a batch is traffic enough
		if !s.ready() {
			// Idle: heartbeat so the mirror's watchdog stays calm.
			s.mu.Unlock()
			if err := s.conn.SendControl(transport.MsgPing, 0); err != nil {
				s.fail()
				return
			}
			continue
		}
		// Drain every contiguous pending group into one wire batch:
		// under bursty commit load several transactions validate before
		// the previous flush completes, and one frame amortizes the
		// syscall per group while keeping strict validation order.
		// Groups queued behind a serial gap ship with the batch after
		// the gap fills.
		batch := s.drain(s.batch[:0], s.maxCohort)
		s.mu.Unlock()
		now := s.clock.Now()
		nRecords := 0
		for _, c := range batch {
			s.queueDelay.Observe(now.Sub(c.at))
			nRecords += len(c.g.Writes) + 1
		}

		// The frame is the groups' stored-log bytes, which the mirror
		// stores as received; Serial is the batch's last commit.
		enc := appendCohort(s.encBuf[:0], batch)
		err := s.conn.Send(&transport.Msg{Type: transport.MsgRecord, Serial: batch[len(batch)-1].serial, Payload: enc})
		// Send copies the payload into the connection's write buffer
		// before returning, so encBuf can be reused for the next batch.
		nGroups, nBytes := len(batch), len(enc)
		clear(batch) // do not retain shipped groups
		s.encBuf, s.batch = enc, batch
		if err != nil {
			s.fail()
			return
		}
		s.cohortSizes.Observe(nGroups)
		s.mu.Lock()
		s.stats.GroupsShipped += uint64(nGroups)
		s.stats.RecordsShipped += uint64(nRecords)
		s.stats.BytesShipped += uint64(nBytes)
		s.stats.Cohorts++
		if uint64(nGroups) > s.stats.MaxCohort {
			s.stats.MaxCohort = uint64(nGroups)
		}
		s.shipped = true
		s.mu.Unlock()
	}
}

// heartbeat is the shipper's only timer. Each tick it declares the mirror
// down if it has been silent (no ack, no pong) for AckTimeout, or if a
// commit is waiting and acked has not advanced for AckTimeout, counted
// from the later of the last ack advance and the moment the first
// waiting commit queued. A mirror that answers pings but never acks is
// caught by the second rule. Otherwise, when nothing shipped since the
// previous tick, it asks the sender to ping the mirror so its watchdog
// stays calm. It never blocks on the connection, so a timeout fires
// within one heartbeat of its deadline even while a wire write is stuck.
func (s *MirrorShipper) heartbeat(t *simtime.Ticker) {
	defer s.wg.Done()
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
		}
		s.mu.Lock()
		now := s.clock.Now()
		since := s.ackedAt
		if s.waitSince > since {
			since = s.waitSince
		}
		silent := now.Sub(s.lastHeard) > s.ackTimeout
		stalled := len(s.pending) > 0 && now.Sub(since) > s.ackTimeout
		if s.ackTimeout > 0 && (silent || stalled) {
			s.mu.Unlock()
			s.fail()
			return
		}
		if !s.shipped {
			s.pingDue = true
			s.cond.Signal()
		}
		s.shipped = false
		s.mu.Unlock()
	}
}

// ackReader consumes acknowledgments (and pongs) from the mirror; every
// message notes the mirror's liveness. Acks are drawn from the transport
// frame pool and released immediately: nothing on this per-commit path
// survives the loop iteration.
func (s *MirrorShipper) ackReader() {
	defer s.wg.Done()
	for {
		m, err := s.conn.RecvPooled()
		if err != nil {
			s.fail()
			return
		}
		typ, serial := m.Type, m.Serial
		transport.ReleaseMsg(m)
		if typ != transport.MsgAck && typ != transport.MsgPong && typ != transport.MsgPing {
			// Unexpected message from the mirror: treat as protocol
			// failure.
			s.fail()
			return
		}
		s.mu.Lock()
		s.lastHeard = s.clock.Now()
		var stable []*commit
		if typ == transport.MsgAck {
			s.stats.Acks++
			if serial > s.acked {
				s.acked = serial
				s.ackedAt = s.lastHeard
				stable = s.settle(serial)
			}
		}
		s.mu.Unlock()
		if len(stable) > 0 {
			deliver(stable, nil)
		}
	}
}

// fail marks the mirror dead and runs the failure callback once. The
// node's callback installs the disk committer, which makes this shipper
// hand its un-acked commits over; whatever is still queued after it
// returns had no successor and fails with ErrMirrorDown.
func (s *MirrorShipper) fail() {
	s.mu.Lock()
	live := !s.failed && !s.closed
	s.failed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.conn.Close()
	if !live {
		return // the first failure (or Close) hands off or ends
	}
	close(s.quit)
	if s.onFailure != nil {
		s.onFailure()
	}
	s.end(ErrMirrorDown)
}

// Stats returns shipping accounting.
func (s *MirrorShipper) Stats() ShipperStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CohortSizes exposes the wire-batch size distribution.
func (s *MirrorShipper) CohortSizes() *metrics.IntDist { return &s.cohortSizes }

// QueueDelay exposes the enqueue→wire latency histogram: how long a
// committed group waited for its cohort to ship.
func (s *MirrorShipper) QueueDelay() *metrics.Histogram { return &s.queueDelay }

// Close implements Committer. Commits not yet handed off fail with
// ErrMirrorDown.
func (s *MirrorShipper) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if !s.failed {
		close(s.quit)
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.conn.Close()
	s.wg.Wait()
	s.end(ErrMirrorDown)
	return nil
}
