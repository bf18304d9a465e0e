package wallclock_test

import (
	"testing"

	"repro/internal/analysis/vettest"
	"repro/internal/analysis/wallclock"
)

func TestWallclock(t *testing.T) {
	vettest.Run(t, "../testdata", wallclock.Run, "internal/clockuse")
}

// TestShipperRegression replays the PR-3 bug shape: a real sleep in a
// group-commit hold loop must be flagged.
func TestShipperRegression(t *testing.T) {
	vettest.Run(t, "../testdata", wallclock.Run, "internal/shipper")
}

// TestScope: packages whose import path has no "internal/" are skipped
// entirely.
func TestScope(t *testing.T) {
	vettest.Run(t, "../testdata", wallclock.Run, "example.com/outside")
}
