package service

import (
	"strings"
	"testing"
	"time"

	rodain "repro"
)

// TestFailoverClientSurvivesTakeover drives a live pair through its
// service front ends and verifies the client keeps working across a
// primary crash.
func TestFailoverClientSurvivesTakeover(t *testing.T) {
	opts := rodain.Options{
		Workers:         2,
		HeartbeatEvery:  25 * time.Millisecond,
		HeartbeatMisses: 4,
	}
	primary, err := rodain.OpenPrimary(opts, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Populate(100, func(i int) (rodain.ObjectID, []byte) {
		return rodain.ObjectID(i), []byte("init")
	}); err != nil {
		t.Fatal(err)
	}
	mirror, err := rodain.OpenMirror(opts, primary.ReplAddr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	waitAttach(t, primary)

	pSrv := NewServer(primary)
	pAddr, err := pSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pSrv.Close()
	mSrv := NewServer(mirror)
	mAddr, err := mSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mSrv.Close()

	c, err := DialFailover([]string{pAddr, mAddr}, time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if resp, err := c.Do(`SET 1 "before"`); err != nil || resp != "OK" {
		t.Fatalf("SET before: %q %v", resp, err)
	}
	if c.Current() != pAddr {
		t.Fatalf("client on %s, want primary %s", c.Current(), pAddr)
	}

	// Kill the primary node (its service keeps listening but the DB is
	// dead — requests will error and the client must move on).
	primary.Crash()

	// The client transparently fails over to the promoted mirror.
	deadline := time.Now().Add(10 * time.Second)
	var resp string
	for {
		resp, err = c.Do("GET 1")
		if err == nil && OK(resp) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %q %v", resp, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(resp, `"before"`) {
		t.Fatalf("committed data lost across failover: %q", resp)
	}
	if c.Current() != mAddr {
		t.Fatalf("client on %s, want mirror %s", c.Current(), mAddr)
	}
	// Writes work on the promoted node too.
	if resp, err := c.Do(`SET 2 "after"`); err != nil || resp != "OK" {
		t.Fatalf("SET after: %q %v", resp, err)
	}
}

func TestFailoverClientMirrorFirst(t *testing.T) {
	// Listing the mirror first must not matter: the client rotates off
	// "not-serving" nodes.
	opts := rodain.Options{Workers: 2}
	primary, err := rodain.OpenPrimary(opts, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.Populate(1, func(int) (rodain.ObjectID, []byte) { return 1, []byte("v") }); err != nil {
		t.Fatal(err)
	}
	mirror, err := rodain.OpenMirror(opts, primary.ReplAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	waitAttach(t, primary)

	pSrv := NewServer(primary)
	pAddr, _ := pSrv.Listen("127.0.0.1:0")
	defer pSrv.Close()
	mSrv := NewServer(mirror)
	mAddr, _ := mSrv.Listen("127.0.0.1:0")
	defer mSrv.Close()

	c, err := DialFailover([]string{mAddr, pAddr}, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do("GET 1")
	if err != nil || !OK(resp) {
		t.Fatalf("GET: %q %v", resp, err)
	}
	if c.Current() != pAddr {
		t.Fatalf("client stuck on mirror %s", c.Current())
	}
}

func TestFailoverClientNoNodes(t *testing.T) {
	if _, err := DialFailover(nil, time.Second, time.Second); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := DialFailover([]string{"127.0.0.1:1"}, 100*time.Millisecond, time.Second); err == nil {
		t.Fatal("unreachable node accepted")
	}
}

func waitAttach(t *testing.T, db *rodain.DB) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-db.Events():
			if ev.Kind == rodain.EventMirrorAttached {
				return
			}
		case <-deadline:
			t.Fatal("mirror never attached")
		}
	}
}
