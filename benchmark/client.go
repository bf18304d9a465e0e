package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// The load generator. It speaks the line protocol over its own sockets
// and buffers rather than through service.Client, so that no change to
// product code can alter the load a later commit is measured with.

// firmDeadline is the paper's 50 ms: the generator counts an open-loop
// reply later than that as a deadline miss. sessionDeadline is what the
// connections announce and the engine pass asks for. It is far longer,
// because a deadline the server enforces turns every stall of the shared
// host into MISS replies, and whether an operation fails must not depend
// on the host: the node keeps its deadline bookkeeping, it just never
// gives up.
const (
	firmDeadline    = deadlineMs * time.Millisecond
	sessionDeadline = sessionMs * time.Millisecond
)

// conn is one client connection.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// dialConn connects and announces the session deadline, as every client
// of the benchmark does first.
func dialConn(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cn := &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
	reply, err := cn.roundTrip([]byte("DEADLINE " + strconv.Itoa(sessionMs) + "\n"))
	if err != nil {
		c.Close()
		return nil, err
	}
	if string(reply) != "OK" {
		c.Close()
		return nil, fmt.Errorf("DEADLINE answered %q", reply)
	}
	return cn, nil
}

func (c *conn) close() { c.c.Close() }

// readLine returns the next reply without its newline; the slice is only
// valid until the next read.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

func (c *conn) roundTrip(line []byte) ([]byte, error) {
	if _, err := c.c.Write(line); err != nil {
		return nil, err
	}
	return c.readLine()
}

// verifyAll reads every entry back through this connection and compares
// it with the model.
func (c *conn) verifyAll(want []entryState, tainted taintSet, g *gateResult) error {
	const batch = 64
	var expect []byte
	for base := 0; base < len(want); base += batch {
		end := base + batch
		if end > len(want) {
			end = len(want)
		}
		c.wbuf = c.wbuf[:0]
		for id := base; id < end; id++ {
			c.wbuf = append(c.wbuf, "TRANSLATE "...)
			c.wbuf = strconv.AppendInt(c.wbuf, int64(id), 10)
			c.wbuf = append(c.wbuf, '\n')
		}
		if _, err := c.c.Write(c.wbuf); err != nil {
			return err
		}
		for id := base; id < end; id++ {
			reply, err := c.readLine()
			if err != nil {
				return err
			}
			if tainted[uint32(id)] {
				continue
			}
			g.checked++
			expect = append(expect[:0], "OK "...)
			expect = append(expect, want[id].routed(id)...)
			expect = append(expect, " v"...)
			expect = strconv.AppendUint(expect, uint64(want[id].version), 10)
			if !bytes.Equal(reply, expect) {
				g.fail("after failover: TRANSLATE %d answered %q, want %q", id, reply, expect)
			}
		}
	}
	return nil
}

// connResult is what one connection observed in one phase.
type connResult struct {
	attempted int
	failed    int // ERR, MISS or wrong
	wrong     int // a reply the reference model does not allow
	late      int // open loop: right, but later than firmDeadline after it was due; not a failure
	firstBad  string

	// Per request, in send order, ns relative to the phase start. sent is
	// the time the line was handed to the socket; lat is due→reply in
	// the open loop and send→reply in a stamped closed loop.
	sent []int64
	lat  []int64

	backlogMax [2]int        // open loop: most requests due but unsent, first and second half
	took       time.Duration // closed loop: first line written to last reply read
}

// tainted collects, per connection, the ids whose REROUTE was not
// acknowledged OK. Whether such an update committed is open, so later
// replies about that entry cannot be called wrong, only failed.
type taintSet map[uint32]bool

func (res *connResult) check(cs *connStream, r *request, reply []byte, lat int64, tainted taintSet) {
	res.attempted++
	switch {
	case bytes.Equal(reply, cs.want(r)):
		if lat > int64(firmDeadline) {
			res.late++
		}
		return
	case bytes.HasPrefix(reply, []byte("MISS")), bytes.HasPrefix(reply, []byte("ERR")):
		if r.update {
			tainted[r.id] = true
		}
	case tainted[r.id]:
	default:
		res.wrong++
	}
	res.failed++
	if res.firstBad == "" {
		res.firstBad = fmt.Sprintf("%q answered %q, want %q", bytes.TrimSpace(cs.line(r)), reply, cs.want(r))
	}
}

// openLoop sends reqs on their schedule: each request goes out when it is
// due, or as soon after as one of openWindow in-flight slots is free, and
// its latency counts from the due time either way. start is the phase
// start shared by all connections.
func (c *conn) openLoop(cs *connStream, reqs []request, start time.Time, tainted taintSet) (*connResult, error) {
	n := len(reqs)
	res := &connResult{sent: make([]int64, n), lat: make([]int64, n)}
	slots := make(chan struct{}, openWindow)
	dead := make(chan struct{})
	recvErr := make(chan error, 1)
	go func() {
		for i := range reqs {
			reply, err := c.readLine()
			if err != nil {
				close(dead)
				recvErr <- err
				return
			}
			now := int64(time.Since(start))
			<-slots
			res.lat[i] = now - reqs[i].due
			res.check(cs, &reqs[i], reply, res.lat[i], tainted)
		}
		recvErr <- nil
	}()

	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pace.close()
	var sendErr error
	for i := 0; i < n && sendErr == nil; {
		now := int64(time.Since(start))
		if wait := reqs[i].due - now; wait > 0 {
			pace.sleep(wait)
			now = int64(time.Since(start))
		}
		due := i
		for due < n && reqs[due].due <= now {
			due++
		}
		if half := 2 * i / n; due-i > res.backlogMax[half] {
			res.backlogMax[half] = due - i
		}
		c.wbuf = c.wbuf[:0]
		first := i
	batch:
		for ; i < due; i++ {
			if i == first {
				select {
				case slots <- struct{}{}: // may wait: the window is full
				case <-dead:
					sendErr = errors.New("receiver stopped")
					break batch
				}
			} else {
				select {
				case slots <- struct{}{}:
				default:
					break batch
				}
			}
			c.wbuf = append(c.wbuf, cs.line(&reqs[i])...)
		}
		if i == first {
			continue
		}
		sentAt := int64(time.Since(start))
		for k := first; k < i; k++ {
			res.sent[k] = sentAt
		}
		if _, err := c.c.Write(c.wbuf); err != nil {
			sendErr = err
		}
	}
	if sendErr != nil {
		c.c.Close() // unblock the receiver
		<-recvErr
		return res, sendErr
	}
	err = <-recvErr
	return res, err
}

// closedLoop keeps depth requests in flight until reqs is used up,
// sending one more for every reply read, and times the whole exchange.
// With stamp set (the traced run) it also records every request's send
// and reply time.
func (c *conn) closedLoop(cs *connStream, reqs []request, depth int, stamp bool, start time.Time, tainted taintSet) (*connResult, error) {
	n := len(reqs)
	res := &connResult{}
	if stamp {
		res.sent, res.lat = make([]int64, n), make([]int64, n)
	}
	sent, recvd := 0, 0
	began := time.Now()
	for recvd < n {
		c.wbuf = c.wbuf[:0]
		for sent < n && sent-recvd < depth {
			if stamp {
				res.sent[sent] = int64(time.Since(start))
			}
			c.wbuf = append(c.wbuf, cs.line(&reqs[sent])...)
			sent++
		}
		if len(c.wbuf) > 0 {
			if _, err := c.c.Write(c.wbuf); err != nil {
				return res, err
			}
		}
		reply, err := c.readLine()
		if err != nil {
			return res, err
		}
		if stamp {
			res.lat[recvd] = int64(time.Since(start)) - res.sent[recvd]
		}
		res.check(cs, &reqs[recvd], reply, 0, tainted)
		recvd++
	}
	res.took = time.Since(began)
	return res, nil
}
