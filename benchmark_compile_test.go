package rodain_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds vets benchmark/ — a module of its own that
// builds against this checkout through a replace — so a product change
// that drops or re-signs a symbol the frozen benchmark calls fails
// tier-1 instead of leaving the change unmeasurable (ROADMAP trap 2).
// GOWORK=off matches how benchmark/run.sh builds it.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
