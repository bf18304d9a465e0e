// Package service is the interface process of a RODAIN node: a
// line-based TCP protocol through which clients submit transactions
// (the prototype's requests arrived through exactly such a front end).
//
// Protocol (one request per line, space-separated, values are Go-quoted
// strings):
//
//	DEADLINE <ms>                 set this connection's deadline
//	CLASS firm|soft|nonrt         set this connection's criticality class
//	GET <id>                      read-only transaction
//	SET <id> <value>              update transaction (read + write)
//	DEL <id>                      delete transaction
//	TRANSLATE <number>            number-translation service provision
//	REROUTE <number> <dest>       update service provision
//	BALANCE <subscriber>          read a subscriber profile's balance
//	CHARGE <subscriber> <cents>   debit a call charge (balance-checked)
//	TOPUP <subscriber> <cents>    credit a subscriber
//	STATS                         node statistics
//	QUIT
//
// Responses: "OK ...", "ERR <reason>", or "MISS <reason>" for real-time
// aborts (deadline, overload, conflict) — the client counts those
// toward the miss ratio.
//
// Clients may pipeline: many request lines may be written before the
// first response is read. Responses always come back in request order.
// Every request executes on its connection's reader in parse order, so a
// pipelined connection observes exactly the transcript a serial one
// would (read-your-writes). An update returns to the reader once it
// validates; no reply leaves before every commit it depends on is
// durable. While the next update is already buffered, the reader holds
// the node's commit path open, so a pipelined run of updates shares one
// cohort. See DESIGN.md §8.
package service

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	rodain "repro"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/telecom"
)

// DefaultPipelineDepth is the per-connection in-flight window.
const DefaultPipelineDepth = 16

// Config tunes the service front end.
type Config struct {
	// PipelineDepth bounds how many requests one connection may have in
	// flight: parsed ahead, executing, or waiting their turn in the
	// reply ring. 1 disables pipelining; 0 means DefaultPipelineDepth.
	PipelineDepth int
	// IdleTimeout disconnects a client that sends nothing for this
	// long, so dead connections cannot pin pooled buffers and
	// goroutines forever. 0 disables the timeout.
	IdleTimeout time.Duration
	// Clock stamps request arrivals for the request-latency histogram.
	// Nil means the shared wall clock.
	Clock simtime.Clock
}

func (c Config) withDefaults() Config {
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = DefaultPipelineDepth
	}
	if c.Clock == nil {
		c.Clock = simtime.Wall
	}
	return c
}

// Server serves the client protocol over a DB node.
type Server struct {
	db    *rodain.DB
	cfg   Config
	clock simtime.Clock

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup

	readers sync.Pool // *bufio.Reader
	writers sync.Pool // *bufio.Writer

	// Front-end measurements, reported by STATS.
	depthDist    metrics.IntDist   // reply-ring occupancy at enqueue
	reqLat       metrics.Histogram // parse → response-written latency
	sockOverload atomic.Uint64     // MISS overload answered at the socket
}

// NewServer returns a server over db with default front-end settings.
func NewServer(db *rodain.DB) *Server { return NewServerConfig(db, Config{}) }

// NewServerConfig returns a server over db with explicit front-end
// settings (pipeline window, idle timeout, clock).
func NewServerConfig(db *rodain.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		db:    db,
		cfg:   cfg,
		clock: cfg.Clock,
		conns: make(map[net.Conn]struct{}),
		readers: sync.Pool{New: func() any {
			return bufio.NewReaderSize(nil, 1<<16)
		}},
		writers: sync.Pool{New: func() any {
			return bufio.NewWriterSize(nil, 1<<16)
		}},
	}
}

// Listen starts accepting clients on addr and returns the bound
// address. It fails on a server that has been closed.
func (s *Server) Listen(addr string) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", errors.New("service: server closed")
	}
	s.mu.Unlock()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		// Closed while binding: don't leak the listener or start an
		// accept loop on a dead server.
		s.mu.Unlock()
		l.Close()
		return "", errors.New("service: server closed")
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listeners, disconnects clients and waits for their
// connections to be served out. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ls := s.listeners
	s.listeners = nil
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	for _, l := range ls {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	s.wg.Wait()
	return err
}

// session holds per-connection transaction settings.
type session struct {
	deadline time.Duration
	class    rodain.Class
}

// overloadedAtSocket consults the overload manager before any work is
// queued: at the limit, an arriving request is answered MISS overload
// straight from the reader, consuming no pipeline slot downstream.
func (s *Server) overloadedAtSocket() bool {
	if !s.db.Overloaded() {
		return false
	}
	s.sockOverload.Add(1)
	return true
}

// view runs fn declared read-only: GET/TRANSLATE/BALANCE lookups ride
// the snapshot fast path (lock-free reads, no conflict registration,
// commit without a log record). The reply waits on req.rel.
func (s *Server) view(req *request, fn func(*rodain.Tx) error) error {
	var err error
	req.rel, err = s.db.SubmitReadOnly(req.class, req.deadline, 0, fn)
	return err
}

// update runs fn with the request's class and deadline, through
// validation only: the reply waits on req.rel for the commit.
func (s *Server) update(req *request, fn func(*rodain.Tx) error) error {
	var err error
	req.rel, err = s.db.Submit(req.class, req.deadline, 0, fn)
	return err
}

// exec executes one validated, non-session request on the connection's
// reader and appends its response line to resp. The engine enforces
// the request's firm deadline; its ErrDeadline is answered MISS
// deadline.
func (s *Server) exec(req *request, resp []byte) []byte {
	switch req.cmd {
	case cmdGet:
		id, ok := parseUintBytes(req.args[0])
		if !ok {
			return appendBadID(resp, req.args[0])
		}
		var value []byte
		err := s.view(req, func(tx *rodain.Tx) error {
			v, err := tx.Read(rodain.ObjectID(id))
			value = v
			return err
		})
		if err != nil {
			return appendClassified(resp, err)
		}
		resp = append(resp, "OK "...)
		return strconv.AppendQuote(resp, string(value))

	case cmdSet:
		id, ok := parseUintBytes(req.args[0])
		if !ok {
			return appendBadID(resp, req.args[0])
		}
		value, err := strconv.Unquote(string(req.args[1]))
		if err != nil {
			value = string(req.args[1]) // allow bare words
		}
		err = s.update(req, func(tx *rodain.Tx) error {
			if _, err := tx.ReadView(rodain.ObjectID(id)); err != nil { // existence check only
				return err
			}
			return tx.Write(rodain.ObjectID(id), []byte(value))
		})
		if err != nil {
			return appendClassified(resp, err)
		}
		return append(resp, "OK"...)

	case cmdDel:
		id, ok := parseUintBytes(req.args[0])
		if !ok {
			return appendBadID(resp, req.args[0])
		}
		err := s.update(req, func(tx *rodain.Tx) error {
			if _, err := tx.ReadView(rodain.ObjectID(id)); err != nil { // existence check only
				return err
			}
			return tx.Delete(rodain.ObjectID(id))
		})
		if err != nil {
			return appendClassified(resp, err)
		}
		return append(resp, "OK"...)

	case cmdTranslate:
		id, err := telecom.NumberToID(string(req.args[0]))
		if err != nil {
			return appendErr(resp, err)
		}
		var entry *telecom.Entry
		err = s.view(req, func(tx *rodain.Tx) error {
			e, err := telecom.Translate(func(id rodain.ObjectID) ([]byte, bool) {
				// Translate decodes and discards, so the zero-copy
				// borrowed read is safe.
				v, rerr := tx.ReadView(id)
				return v, rerr == nil
			}, id)
			entry = e
			return err
		})
		if err != nil {
			return appendClassified(resp, err)
		}
		return fmt.Appendf(resp, "OK %s v%d", entry.Routed, entry.Version)

	case cmdReroute:
		id, err := telecom.NumberToID(string(req.args[0]))
		if err != nil {
			return appendErr(resp, err)
		}
		dest := string(req.args[1])
		err = s.update(req, func(tx *rodain.Tx) error {
			v, err := tx.ReadView(id) // decoded below before any write is staged
			if err != nil {
				return err
			}
			old, err := telecom.Decode(v)
			if err != nil {
				return err
			}
			return tx.Write(id, telecom.Encode(telecom.Reroute(old, dest)))
		})
		if err != nil {
			return appendClassified(resp, err)
		}
		return append(resp, "OK"...)

	case cmdBalance:
		idx, ok := parseIntBytes(req.args[0])
		if !ok || idx < 0 {
			return append(resp, "ERR bad subscriber index"...)
		}
		var balance int64
		var prepaid bool
		err := s.view(req, func(tx *rodain.Tx) error {
			enc, err := tx.ReadView(telecom.SubscriberID(int(idx)))
			if err != nil {
				return err
			}
			sub, err := telecom.DecodeSubscriber(enc)
			if err != nil {
				return err
			}
			balance, prepaid = sub.BalanceCents, sub.Prepaid
			return nil
		})
		if err != nil {
			return appendClassified(resp, err)
		}
		kind := "postpaid"
		if prepaid {
			kind = "prepaid"
		}
		return fmt.Appendf(resp, "OK %d %s", balance, kind)

	case cmdCharge, cmdTopup:
		idx, ok := parseIntBytes(req.args[0])
		if !ok || idx < 0 {
			return append(resp, "ERR bad subscriber index"...)
		}
		cents, ok := parseIntBytes(req.args[1])
		if !ok {
			return append(resp, "ERR bad amount"...)
		}
		charge := req.cmd == cmdCharge
		err := s.update(req, func(tx *rodain.Tx) error {
			id := telecom.SubscriberID(int(idx))
			enc, err := tx.ReadView(id) // consumed by Charge/TopUp before the write
			if err != nil {
				return err
			}
			var next []byte
			if charge {
				next, err = telecom.Charge(enc, cents)
			} else {
				next, err = telecom.TopUp(enc, cents)
			}
			if err != nil {
				return err
			}
			return tx.Write(id, next)
		})
		if err != nil {
			return appendClassified(resp, err)
		}
		return append(resp, "OK"...)

	case cmdStats:
		st := s.db.Stats()
		lat := s.reqLat.Summary()
		return fmt.Appendf(resp,
			"OK mode=%s log=%s submitted=%d committed=%d missed=%d miss=%.4f resp=%v cwait=%v pdepth=%.1f/%d reqp50=%v reqp95=%v sockmiss=%d holds=%d cohort=%.1f",
			st.Mode, st.LogMode, st.Outcome.Submitted, st.Outcome.Committed,
			st.Outcome.Missed, st.MissRatio, st.MeanResponse, st.MeanCommitWait,
			s.depthDist.Mean(), s.depthDist.Max(), lat.P50, lat.P95,
			s.sockOverload.Load(), st.ReplyHolds, st.CommitCohortMean)
	}
	return appendUnknown(resp, req.cmdTok) // unreachable: the reader filters
}

// handleSession applies a session-mutating command (DEADLINE, CLASS) to
// sess and appends the response. It runs on the connection reader, so
// the new settings bind exactly the requests parsed after it.
func handleSession(req *request, sess *session, resp []byte) []byte {
	if cmdArgc[req.cmd] >= 0 && req.nargs != cmdArgc[req.cmd] {
		return appendUsage(resp, req.cmd)
	}
	switch req.cmd {
	case cmdDeadline:
		ms, ok := parseIntBytes(req.args[0])
		if !ok || ms <= 0 {
			return append(resp, "ERR bad deadline"...)
		}
		sess.deadline = time.Duration(ms) * time.Millisecond
		return append(resp, "OK"...)
	case cmdClass:
		arg := req.args[0]
		switch {
		case eqFold(arg, "FIRM"):
			sess.class = rodain.Firm
		case eqFold(arg, "SOFT"):
			sess.class = rodain.Soft
		case eqFold(arg, "NONRT"):
			sess.class = rodain.NonRealTime
		default:
			resp = append(resp, "ERR unknown class "...)
			return append(resp, arg...)
		}
		return append(resp, "OK"...)
	}
	return resp
}

// --- response builders -------------------------------------------------------

func appendUsage(resp []byte, c command) []byte {
	resp = append(resp, "ERR usage: "...)
	return append(resp, cmdUsage[c]...)
}

func appendUnknown(resp, cmdTok []byte) []byte {
	resp = append(resp, "ERR unknown command "...)
	for _, c := range cmdTok {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		resp = append(resp, c)
	}
	return resp
}

func appendBadID(resp, tok []byte) []byte {
	resp = append(resp, "ERR bad object id "...)
	return strconv.AppendQuote(resp, string(tok))
}

func appendErr(resp []byte, err error) []byte {
	resp = append(resp, "ERR "...)
	return append(resp, err.Error()...)
}

// appendClassified maps real-time aborts to MISS responses so clients
// can count them; everything else is an ERR.
func appendClassified(resp []byte, err error) []byte {
	return append(resp, classify(err)...)
}

// classify maps real-time aborts to MISS responses so clients can count
// them; everything else is an ERR.
func classify(err error) string {
	switch {
	case errors.Is(err, rodain.ErrDeadline):
		return "MISS deadline"
	case errors.Is(err, rodain.ErrOverload):
		return "MISS overload"
	case errors.Is(err, rodain.ErrConflict):
		return "MISS conflict"
	case errors.Is(err, rodain.ErrNotServing), errors.Is(err, rodain.ErrClosed):
		return "ERR not-serving"
	default:
		return "ERR " + err.Error()
	}
}

// Client is a protocol client.
type Client struct {
	conn net.Conn
	r    *bufio.Scanner
	w    *bufio.Writer
	mu   sync.Mutex
}

// Dial connects to a node's service port.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &Client{conn: conn, r: sc, w: bufio.NewWriter(conn)}, nil
}

// Do sends one request line and returns the response line.
func (c *Client) Do(line string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprintln(c.w, line); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.readLocked()
}

// Pipeline sends every line keeping up to depth requests in flight
// (closed loop) and returns the responses in request order. depth < 1
// is treated as 1, which degenerates to serial Do calls.
func (c *Client) Pipeline(lines []string, depth int) ([]string, error) {
	if depth < 1 {
		depth = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resps := make([]string, 0, len(lines))
	sent := 0
	for len(resps) < len(lines) {
		for sent < len(lines) && sent-len(resps) < depth {
			if _, err := fmt.Fprintln(c.w, lines[sent]); err != nil {
				return resps, err
			}
			sent++
		}
		if err := c.w.Flush(); err != nil {
			return resps, err
		}
		resp, err := c.readLocked()
		if err != nil {
			return resps, err
		}
		resps = append(resps, resp)
	}
	return resps, nil
}

func (c *Client) readLocked() (string, error) {
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("service: connection closed")
	}
	return c.r.Text(), nil
}

// Miss reports whether a response line is a real-time miss.
func Miss(resp string) bool { return len(resp) >= 4 && resp[:4] == "MISS" }

// OK reports whether a response line is a success.
func OK(resp string) bool { return len(resp) >= 2 && resp[:2] == "OK" }

// Close disconnects.
func (c *Client) Close() error { return c.conn.Close() }
