package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wal"
)

// jumpClock is a Clock whose AfterFunc fires immediately, advancing
// virtual time by the requested delay: waits complete instantly while
// recording how long they would have been. It stands in for a
// simulation loop in tests that only care that code waits through the
// clock instead of time.Sleep.
type jumpClock struct {
	mu    sync.Mutex
	now   simtime.Time
	waits []time.Duration
	// onWait, if set, runs after the n-th wait (1-based) has elapsed.
	onWait func(n int)
}

func (c *jumpClock) Now() simtime.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *jumpClock) AfterFunc(d simtime.Duration, fn func()) func() bool {
	c.mu.Lock()
	c.waits = append(c.waits, d)
	c.now = c.now.Add(d)
	n, hook := len(c.waits), c.onWait
	c.mu.Unlock()
	if hook != nil {
		hook(n)
	}
	fn()
	return func() bool { return false }
}

func (c *jumpClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.waits...)
}

// downCommitter always reports the mirror as down.
type downCommitter struct{}

func (downCommitter) Commit(*wal.Group) error { return ErrMirrorDown }
func (downCommitter) Close() error            { return nil }

// TestCommitStableBacksOffOnEngineClock checks that the mirror-down
// retry loop waits through the engine clock with capped exponential
// backoff instead of a hard-coded real sleep, for as long as the commit
// path stays unswapped: under a simulated clock the whole retry sequence
// completes without blocking wall time.
func TestCommitStableBacksOffOnEngineClock(t *testing.T) {
	clk := &jumpClock{}
	e := NewEngine(Config{Workers: 1, Clock: clk}, store.New(), downCommitter{}, LogShip)
	defer e.Stop()
	clk.onWait = func(n int) {
		if n == 6 { // the node swaps in the disk only after six waits
			e.SetCommitter(nullCommitter{}, LogDisk)
		}
	}

	tx := txn.New(1, txn.Firm, 0, txn.NoDeadline)
	tx.StageWrite(1, []byte("v"))

	start := time.Now()
	err := e.commitStable(tx)
	elapsed := time.Since(start)

	if err != nil {
		t.Fatalf("commit through the swapped-in committer: %v", err)
	}
	waits := clk.recorded()
	ms := time.Millisecond
	want := []time.Duration{100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond, 800 * time.Microsecond, ms, ms}
	if len(waits) != len(want) {
		t.Fatalf("waits = %v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("wait %d = %v, want %v (waits %v)", i, waits[i], want[i], waits)
		}
	}
	// All waiting went through the clock: real time spent should be far
	// below even one of the old 1 ms sleeps. Allow generous slack for
	// slow CI machines.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("commitStable blocked %v of wall time under a simulated clock", elapsed)
	}
}

// TestCommitStableGivesUpWhenStopped: with the mirror down and no other
// commit path ever swapped in, the retry loop ends only when the engine
// stops, and then reports the mirror loss.
func TestCommitStableGivesUpWhenStopped(t *testing.T) {
	clk := &jumpClock{}
	e := NewEngine(Config{Workers: 1, Clock: clk}, store.New(), downCommitter{}, LogShip)
	clk.onWait = func(n int) {
		if n == 20 {
			e.Stop()
		}
	}
	tx := txn.New(1, txn.Firm, 0, txn.NoDeadline)
	tx.StageWrite(1, []byte("v"))

	if err := e.commitStable(tx); !errors.Is(err, ErrMirrorDown) {
		t.Fatalf("err = %v, want ErrMirrorDown", err)
	}
	if n := len(clk.recorded()); n != 20 {
		t.Fatalf("%d waits, want 20 (gave up before the engine stopped?)", n)
	}
}

// TestEngineDefaultsToWallClock just pins the default: a nil Config
// clock must still produce a working engine.
func TestEngineDefaultsToWallClock(t *testing.T) {
	e := NewEngine(Config{Workers: 1}, store.New(), nullCommitter{}, LogNone)
	defer e.Stop()
	if e.clock == nil {
		t.Fatal("engine clock not defaulted")
	}
	if _, ok := e.clock.(*simtime.WallClock); !ok {
		t.Fatalf("default clock is %T, want *simtime.WallClock", e.clock)
	}
}
