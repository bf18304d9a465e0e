package durability_test

import (
	"testing"

	"repro/internal/analysis/durability"
	"repro/internal/analysis/vettest"
)

func TestDurability(t *testing.T) {
	vettest.Run(t, "../testdata", durability.Run, "internal/durlog")
}
