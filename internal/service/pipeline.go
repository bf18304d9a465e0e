package service

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	rodain "repro"
	"repro/internal/simtime"
)

// The per-connection pipeline. One reader goroutine parses and executes
// every request in order, up to the configured window ahead of the
// replies, and one writer goroutine drains a sequenced reply ring so
// responses leave in request order. A request is complete when it
// enters the ring, so a pipelined connection observes exactly the
// transcript a serial one would (read-your-writes included).
//
// An update runs through validation only: its writes are then
// installed, so everything parsed after it sees them, and the reader
// moves on while the commit is made stable. While the next request is an
// update already buffered whole and the ring has room for it, the reader
// holds the node's commit path open (holdCommits), so the run's commits
// leave in one cohort; it releases before anything that can wait, so a
// read never executes under a hold. Every reply
// carries a Release — an update's own serial, or the highest serial a
// read observed — and the writer sends nothing above the engine's
// durable watermark: at such a reply it flushes what is ready and parks
// until the watermark reaches it. If a commit fails, that reply and
// every later one in the window answer ERR and the connection closes.

// maxLineBytes bounds one request line, not counting its newline; a
// longer line closes the connection.
const maxLineBytes = 1 << 20

// request is one parsed client request flowing through a connection's
// pipeline. Requests are pooled; every byte slice keeps its capacity
// across uses, so a warmed-up connection parses and answers without
// allocating.
type request struct {
	cmd    command
	cmdTok []byte          // verb token (unknown-command echo); into buf
	args   [maxArgs][]byte // argument tokens; into buf
	nargs  int

	// The session's class and deadline when the request was parsed,
	// and its arrival time (for the request-latency histogram).
	class    rodain.Class
	deadline time.Duration
	arrival  simtime.Time

	buf  []byte // the request line, owned by this request
	resp []byte // the response line being built (no newline)
	// rel is the durability resp waits on before it may be written.
	rel rodain.Release
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

func getRequest() *request { return requestPool.Get().(*request) }

func putRequest(req *request) {
	req.cmd = cmdUnknown
	req.cmdTok = nil
	for i := range req.args {
		req.args[i] = nil
	}
	req.nargs = 0
	req.buf = req.buf[:0]
	req.resp = req.resp[:0]
	req.rel = rodain.Release{}
	requestPool.Put(req)
}

// pipeConn is the per-connection pipeline state.
type pipeConn struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	sess session

	// pending is the sequenced reply ring: requests enter in parse
	// order, each with its response built, and the writer drains them
	// in that order; its capacity is the connection's in-flight window.
	pending    chan *request
	writerDone chan struct{}

	hold    rodain.Hold // see holdCommits; valid while holding
	holding bool
}

// serve runs one client connection through the pipeline.
func (s *Server) serve(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // response latency beats segment coalescing
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	br := s.readers.Get().(*bufio.Reader)
	br.Reset(conn)
	bw := s.writers.Get().(*bufio.Writer)
	bw.Reset(conn)
	c := &pipeConn{
		s:          s,
		conn:       conn,
		br:         br,
		bw:         bw,
		sess:       session{deadline: 50 * time.Millisecond, class: rodain.Firm},
		pending:    make(chan *request, s.cfg.PipelineDepth),
		writerDone: make(chan struct{}),
	}
	c.run()
	br.Reset(nil)
	s.readers.Put(br)
	bw.Reset(nil)
	s.writers.Put(bw)
}

func (c *pipeConn) run() {
	go c.writeLoop()
	defer func() {
		c.releaseCommits()
		close(c.pending)
		<-c.writerDone
		c.conn.Close()
	}()
	for {
		if c.holding && !c.updateNext() {
			c.releaseCommits()
		}
		line, err := c.readLine()
		if err != nil {
			return
		}
		req := getRequest()
		req.buf = append(req.buf[:0], line...)
		if !req.tokenize() {
			putRequest(req) // blank line
			continue
		}
		req.arrival = c.s.clock.Now()
		req.class = c.sess.class
		req.deadline = c.sess.deadline

		switch {
		case req.cmd == cmdQuit:
			// Answer and hang up (any arguments are ignored, as they
			// always were).
			req.resp = append(req.resp[:0], "OK bye"...)
		case isSessionCmd(req.cmd):
			// DEADLINE/CLASS: the new settings bind exactly the
			// requests parsed after this one.
			req.resp = handleSession(req, &c.sess, req.resp[:0])
		case req.cmd == cmdUnknown:
			req.resp = appendUnknown(req.resp[:0], req.cmdTok)
		case cmdArgc[req.cmd] >= 0 && req.nargs != cmdArgc[req.cmd]:
			req.resp = appendUsage(req.resp[:0], req.cmd)
		case isTxnCmd(req.cmd) && c.s.overloadedAtSocket():
			// Admission at the socket: the overload manager is at its
			// limit, so the arriving request — the lowest-priority work
			// in the system — is denied without executing.
			req.resp = append(req.resp[:0], "MISS overload"...)
		default:
			// A transaction or STATS. An update's reply waits for
			// durability in the writer; if another update is already
			// buffered, its commit joins this one's cohort.
			if isWriteCmd(req.cmd) && c.updateNext() {
				c.holdCommits()
			}
			req.resp = c.s.exec(req, req.resp[:0])
		}
		quit := req.cmd == cmdQuit // req is the writer's once enqueued
		c.s.depthDist.Observe(len(c.pending) + 1)
		c.pending <- req
		if quit {
			return
		}
	}
}

// updateNext reports whether the next unread request is an update the
// reader can take without waiting: its whole line is buffered, its verb
// is an update, and the reply ring has room for one more request.
func (c *pipeConn) updateNext() bool {
	if len(c.pending) == cap(c.pending) {
		return false
	}
	b, _ := c.br.Peek(c.br.Buffered())
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return false
	}
	verb, _ := nextToken(b[:nl])
	return isWriteCmd(matchCommand(verb))
}

// holdCommits holds the node's commit path open, if the reader does
// not already. The reader holds while it submits updates with another
// one right behind (updateNext): their commits wait for it, and a run of
// pipelined updates leaves in one cohort — one frame to the mirror, or
// one sync. The hold ends (releaseCommits) after the run's last update
// is submitted, before the reader can wait on the socket or the ring,
// and before any request that adds no commit.
func (c *pipeConn) holdCommits() {
	if !c.holding {
		c.hold, c.holding = c.s.db.HoldCommits(), true
	}
}

// releaseCommits ends the reader's hold, if it has one.
func (c *pipeConn) releaseCommits() {
	if c.holding {
		c.hold.Release()
		c.holding = false
	}
}

// readLine returns the next request line (without its newline),
// enforcing the idle timeout and the line-length bound.
func (c *pipeConn) readLine() ([]byte, error) {
	if c.s.cfg.IdleTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.s.cfg.IdleTimeout)) //rodain:allow wallclock (socket I/O deadlines are wall-clock by nature)
	}
	line, err := c.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		// Long line: accumulate (allocates; off the hot path).
		acc := append([]byte(nil), line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = c.br.ReadSlice('\n')
			acc = append(acc, line...)
			if len(chompNL(acc)) > maxLineBytes {
				return nil, bufio.ErrBufferFull
			}
		}
		line = acc
	}
	if err != nil {
		if len(line) > 0 && errors.Is(err, io.EOF) {
			return chompNL(line), nil // final unterminated line
		}
		return nil, err
	}
	return chompNL(line), nil
}

func chompNL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		return b[:n-1]
	}
	return b
}

// writeLoop drains the reply ring in sequence, coalescing the flush:
// the buffered writer is flushed only when no further response is
// immediately ready — one flush per drained batch, not per request. A
// reply whose Release is above the durable watermark is the other flush
// point: what precedes it leaves, then the writer parks on the
// watermark. Once a commit has failed (commitErr), every reply answers
// ERR until the ring runs dry, and the connection closes.
func (c *pipeConn) writeLoop() {
	defer close(c.writerDone)
	var werr, commitErr error
	dirty := false
	flush := func() {
		if dirty && werr == nil {
			if werr = c.bw.Flush(); werr != nil {
				// Unstick the reader: it may be blocked on a read
				// while the client waits for responses we can't send.
				c.conn.Close()
			}
			dirty = false
		}
	}
	for {
		var req *request
		select {
		case req = <-c.pending:
		default:
			flush()
			if commitErr != nil && werr == nil {
				werr = commitErr // the window is answered: hang up
				c.conn.Close()
			}
			req = <-c.pending
		}
		if req == nil {
			flush()
			return
		}
		if commitErr == nil && !req.rel.Ready() {
			flush()
			commitErr = req.rel.Wait()
		}
		if commitErr != nil {
			req.resp = appendErr(req.resp[:0], commitErr)
		}
		if werr == nil {
			c.bw.Write(req.resp)
			c.bw.WriteByte('\n')
			dirty = true
		}
		c.s.reqLat.Observe(c.s.clock.Now().Sub(req.arrival))
		putRequest(req)
	}
}
