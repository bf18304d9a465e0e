package lockorder_test

import (
	"testing"

	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/vettest"
)

func TestLockOrder(t *testing.T) {
	vettest.Run(t, "../testdata", lockorder.Run, "internal/striped")
}
