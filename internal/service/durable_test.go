package service

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	rodain "repro"
	"repro/internal/telecom"
	"repro/internal/transport"
	"repro/internal/wal"
)

// stallMirror stands in for the mirror on the replication socket: it
// takes the state transfer, answers pings, and acknowledges commit
// records only up to a limit the test moves, so the test decides when
// each commit becomes durable.
type stallMirror struct {
	conn *transport.Conn

	mu    sync.Mutex
	limit uint64 // highest serial it may acknowledge
	seen  uint64 // highest commit serial received
	acked uint64
}

// attachStallMirror joins db (a primary) as its mirror, acknowledging
// commits up to limit, and waits until db reports the mirror attached.
func attachStallMirror(t *testing.T, db *rodain.DB, limit uint64) *stallMirror {
	t.Helper()
	conn, err := transport.Dial(db.ReplAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(&transport.Msg{Type: transport.MsgHello}); err != nil {
		t.Fatal(err)
	}
	m := &stallMirror{conn: conn, limit: limit}
	go m.run()
	waitAttach(t, db)
	return m
}

func (m *stallMirror) run() {
	for {
		msg, err := m.conn.Recv()
		if err != nil {
			return
		}
		switch msg.Type {
		case transport.MsgPing:
			m.conn.SendControl(transport.MsgPong, 0)
		case transport.MsgRecord:
			// One frame per cohort: the last record is its last commit.
			for b := msg.Payload; len(b) > 0; {
				rec, n, err := wal.DecodeNext(b)
				if err != nil {
					return
				}
				if b = b[n:]; len(b) == 0 && rec.Type == wal.TypeCommit {
					m.mu.Lock()
					m.seen = max(m.seen, rec.SerialOrder)
					m.ackLocked()
					m.mu.Unlock()
				}
			}
		}
	}
}

func (m *stallMirror) ackLocked() {
	if to := min(m.seen, m.limit); to > m.acked {
		m.acked = to
		m.conn.SendControl(transport.MsgAck, to)
	}
}

// setLimit moves the acknowledgment limit; commits already received up
// to it are acknowledged at once.
func (m *stallMirror) setLimit(limit uint64) {
	m.mu.Lock()
	m.limit = limit
	m.ackLocked()
	m.mu.Unlock()
}

// stall stops acknowledging anything not acknowledged yet.
func (m *stallMirror) stall() {
	m.mu.Lock()
	m.limit = m.acked
	m.mu.Unlock()
}

// openServedPrimary opens a primary, joins a stallMirror to it that
// acknowledges commits up to limit, populates the test population
// through the pair (serial 1), and serves the line protocol on it.
func openServedPrimary(t *testing.T, opts rodain.Options, limit uint64) (*rodain.DB, string, *stallMirror) {
	t.Helper()
	db, err := rodain.OpenPrimary(opts, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := attachStallMirror(t, db, limit)
	populate(t, db)
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, addr, m
}

// lineConn is a raw client connection whose reply lines arrive on a
// channel, so a test can assert that a reply does not come.
type lineConn struct {
	conn  net.Conn
	lines chan string
}

func dialLines(t *testing.T, addr string) *lineConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &lineConn{conn: conn, lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			c.lines <- sc.Text()
		}
		close(c.lines)
	}()
	c.send(t, "DEADLINE 10000")
	c.expect(t, "OK")
	return c
}

func (c *lineConn) send(t *testing.T, lines ...string) {
	t.Helper()
	if _, err := c.conn.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
}

// next returns the next reply line, failing the test if none arrives
// within 5 s or the connection closes.
func (c *lineConn) next(t *testing.T) string {
	t.Helper()
	select {
	case line, ok := <-c.lines:
		if !ok {
			t.Fatal("connection closed before the reply")
		}
		return line
	case <-time.After(5 * time.Second):
		t.Fatal("no reply within 5 s")
	}
	return ""
}

func (c *lineConn) expect(t *testing.T, want string) {
	t.Helper()
	if got := c.next(t); got != want {
		t.Fatalf("reply %q, want %q", got, want)
	}
}

// expectSilent fails if a reply line arrives within d.
func (c *lineConn) expectSilent(t *testing.T, d time.Duration, why string) {
	t.Helper()
	select {
	case line, ok := <-c.lines:
		if ok {
			t.Fatalf("%s: got reply %q", why, line)
		}
		t.Fatalf("%s: connection closed", why)
	case <-time.After(d):
	}
}

// expectClosed fails unless the server hangs up within 5 s, with no
// further reply.
func (c *lineConn) expectClosed(t *testing.T) {
	t.Helper()
	select {
	case line, ok := <-c.lines:
		if ok {
			t.Fatalf("reply %q after the window, want hang-up", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("connection still open 5 s after a failed commit")
	}
}

// waitRouted waits until id's committed route reads dest outside any
// transaction: the update that wrote it has validated.
func waitRouted(t *testing.T, db *rodain.DB, id rodain.ObjectID, dest string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := db.Get(id); ok {
			if e, err := telecom.Decode(v); err == nil && e.Routed == dest {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("id %d never routed to %s", id, dest)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoReplyBeforeDurable is the durable-through oracle: no reply
// exposes a write whose commit the mirror has not acknowledged. While
// acks are stalled, pipelined REROUTEs on connection A validate (their
// writes are installed) but stay unanswered, and so does a TRANSLATE on
// connection B of an id A wrote; a TRANSLATE of an untouched id is
// answered at once. When acks resume, every reply arrives, in order.
func TestNoReplyBeforeDurable(t *testing.T) {
	db, addr, m := openServedPrimary(t, rodain.Options{Workers: 2, AckTimeout: 30 * time.Second}, ^uint64(0))
	a, b := dialLines(t, addr), dialLines(t, addr)

	m.stall()
	a.send(t, "REROUTE 1 +358401111", "REROUTE 2 +358402222", "REROUTE 3 +358403333")
	waitRouted(t, db, 1, "+358401111")

	b.send(t, "TRANSLATE 40")
	b.expect(t, "OK +358500000040 v1")
	b.send(t, "TRANSLATE 1")
	b.expectSilent(t, 200*time.Millisecond, "TRANSLATE of an id written by an unacknowledged commit")

	waitRouted(t, db, 2, "+358402222")
	waitRouted(t, db, 3, "+358403333") // A kept parsing: the updates overlap
	a.expectSilent(t, 50*time.Millisecond, "REROUTE before its commit is acknowledged")
	for deadline := time.Now().Add(5 * time.Second); db.Stats().ReplyHolds != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ReplyHolds = %d while one read is held, want 1", db.Stats().ReplyHolds)
		}
	}

	m.setLimit(^uint64(0))
	a.expect(t, "OK")
	a.expect(t, "OK")
	a.expect(t, "OK")
	b.expect(t, "OK +358401111 v2")

	a.send(t, "STATS")
	if stats := a.next(t); !strings.Contains(stats, " holds=1") {
		t.Fatalf("STATS should count the held read: %q", stats)
	} else if !strings.Contains(stats, " cohort=") {
		t.Fatalf("STATS should end with the commit cohort mean: %q", stats)
	}
}

// TestCommitFailureAnswersERR: when a commit can be made stable nowhere
// — the mirror is gone and the disk log's Sync fails — the watermark
// stops below it. Its reply and every later reply in the window answer
// ERR and the connection closes; no OK leaves for a serial above the
// watermark, and a read held on another connection gets ERR, not a hang.
func TestCommitFailureAnswersERR(t *testing.T) {
	const full = "/dev/full" // every write fails with ENOSPC
	if f, err := os.OpenFile(full, os.O_WRONLY, 0); err != nil {
		t.Skipf("needs %s: %v", full, err)
	} else {
		f.Close()
	}
	// The population (serial 1) and the first three REROUTEs (2..4)
	// become durable; 5.. wait.
	db, addr, m := openServedPrimary(t, rodain.Options{Workers: 2, AckTimeout: 30 * time.Second, LogPath: full}, 4)
	a, b := dialLines(t, addr), dialLines(t, addr)

	routes := []string{"+358401", "+358402", "+358403", "+358404", "+358405", "+358406", "+358407", "+358408"}
	for i, dest := range routes {
		a.send(t, fmt.Sprintf("REROUTE %d %s", i+1, dest))
	}
	waitRouted(t, db, 8, routes[7]) // all eight validated: 8 in flight
	b.send(t, "TRANSLATE 6")
	b.expectSilent(t, 50*time.Millisecond, "TRANSLATE of an id written by an unacknowledged commit")

	m.conn.Close() // the mirror dies; its commits fall back to the failing disk

	for i := range routes {
		got := a.next(t)
		if i < 3 {
			if got != "OK" {
				t.Fatalf("REROUTE %d (acknowledged): %q, want OK", i+1, got)
			}
		} else if !strings.HasPrefix(got, "ERR ") {
			t.Fatalf("REROUTE %d (commit failed): %q, want ERR", i+1, got)
		}
	}
	a.expectClosed(t)
	if got := b.next(t); !strings.HasPrefix(got, "ERR ") {
		t.Fatalf("held TRANSLATE after the failure: %q, want ERR", got)
	}
	b.expectClosed(t)
}
