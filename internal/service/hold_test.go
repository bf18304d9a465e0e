package service

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	rodain "repro"
)

// The tests here run a transient node: its group committer has no
// heartbeat, so a hold the reader failed to release would stall every
// commit for good.

// pipeClient serves db on one end of an in-memory connection and
// returns the other: one client Write reaches the reader in one read.
// The cleanup closes db once the connection is served out; a reader
// stuck on its own hold fails the test instead of hanging it.
func pipeClient(t *testing.T, db *rodain.DB, cfg Config) (net.Conn, *bufio.Reader) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServerConfig(db, cfg).serve(server)
	}()
	t.Cleanup(func() {
		client.Close()
		select {
		case <-done:
			db.Close()
		case <-time.After(5 * time.Second):
			t.Error("the connection's reader is stuck")
		}
	})
	return client, bufio.NewReader(client)
}

// reroutes returns a DEADLINE line and n REROUTE lines, one write's
// worth: n+1 replies.
func reroutes(n int) []byte {
	var b strings.Builder
	b.WriteString("DEADLINE 10000\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "REROUTE %d +35840%04d\n", i%50, i)
	}
	return []byte(b.String())
}

// expectReplies reads n reply lines, each "OK", within 5 s.
func expectReplies(t *testing.T, conn net.Conn, r *bufio.Reader, n int) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < n; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, n, err)
		}
		if line != "OK\n" {
			t.Fatalf("reply %d: %q, want OK", i+1, line)
		}
	}
}

// TestPipelinedUpdatesShareCohort: updates that arrive in one read share
// one cohort, so one sync makes all of them durable.
func TestPipelinedUpdatesShareCohort(t *testing.T) {
	const n = 8
	db := newTestDB(t, rodain.Options{Durability: rodain.DurDisk, Workers: 2})
	conn, r := pipeClient(t, db, Config{})
	go conn.Write(reroutes(n)) // net.Pipe: returns once the reader took it all
	expectReplies(t, conn, r, n+1)
	// Two cohorts: the population's one commit, then all n updates.
	if got, want := db.Stats().CommitCohortMean, float64(1+n)/2; got != want {
		t.Fatalf("CommitCohortMean = %v, want %v: the n updates in one cohort", got, want)
	}
}

// TestHoldNeverWaitsOnItself: with a reply ring of two, the reader stops
// holding when the ring fills, so forty buffered updates all complete:
// a held commit never waits for a reply slot its own reply occupies.
func TestHoldNeverWaitsOnItself(t *testing.T) {
	const n = 40
	db := newTestDB(t, rodain.Options{Durability: rodain.DurDisk, Workers: 2})
	conn, r := pipeClient(t, db, Config{PipelineDepth: 2})
	go conn.Write(reroutes(n))
	expectReplies(t, conn, r, n+1)
}

// TestPartialLineTakesNoHold: a connection whose next line has only half
// arrived does not hold the commit path while it waits for the rest, so
// another connection's update still commits.
func TestPartialLineTakesNoHold(t *testing.T) {
	addr, _, _ := startPipeServer(t, Config{}, rodain.Options{Durability: rodain.DurDisk, Workers: 2})
	a, b := dialLines(t, addr), dialLines(t, addr)
	if _, err := a.conn.Write([]byte("REROUTE 1 +358401111\nREROUTE 2 +3584")); err != nil {
		t.Fatal(err)
	}
	a.expect(t, "OK")
	b.send(t, "REROUTE 3 +358403333")
	select {
	case line, ok := <-b.lines:
		if !ok || line != "OK" {
			t.Fatalf("update on the other connection: %q (open %v), want OK", line, ok)
		}
	case <-time.After(time.Second):
		t.Fatal("update on the other connection not answered within 1 s")
	}
}
