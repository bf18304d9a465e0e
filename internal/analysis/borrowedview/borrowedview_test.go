package borrowedview_test

import (
	"testing"

	"repro/internal/analysis/borrowedview"
	"repro/internal/analysis/vettest"
)

func TestBorrowedView(t *testing.T) {
	vettest.Run(t, "../testdata", borrowedview.Run, "internal/viewer")
}
