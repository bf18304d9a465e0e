package core

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/store"
)

// TestEngineDefaultsToWallClock just pins the default: a nil Config
// clock must still produce a working engine.
func TestEngineDefaultsToWallClock(t *testing.T) {
	e := NewEngine(Config{Workers: 1}, store.New(), newNoWaitCommitter(), LogNone)
	defer e.Stop()
	if e.clock == nil {
		t.Fatal("engine clock not defaulted")
	}
	if _, ok := e.clock.(*simtime.WallClock); !ok {
		t.Fatalf("default clock is %T, want *simtime.WallClock", e.clock)
	}
}
