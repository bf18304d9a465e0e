package atomicfield_test

import (
	"testing"

	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/vettest"
)

func TestAtomicField(t *testing.T) {
	vettest.Run(t, "../testdata", atomicfield.Run, "internal/counters")
}

// TestCrossPackage checks the IsAtomic object fact flows from the
// package that marks the field to a downstream importer.
func TestCrossPackage(t *testing.T) {
	vettest.Run(t, "../testdata", atomicfield.Run, "internal/counteruse")
}
