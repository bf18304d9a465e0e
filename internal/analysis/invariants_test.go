package analysis_test

import (
	"fmt"
	"go/build"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/borrowedview"
	"repro/internal/analysis/durability"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/vettest"
	"repro/internal/analysis/wallclock"
)

var passes = []func(*analysis.Pass){
	wallclock.Run,
	durability.Run,
	atomicfield.Run,
	borrowedview.Run,
	lockorder.Run,
}

// TestInvariants runs the five passes over every package of the module,
// covering what `go vet` covers: each package's GoFiles (which also feed
// atomicfield's facts), the package re-checked with its in-package
// _test.go files, and its external _test package. Like ./..., the walk
// skips testdata, dot and underscore directories and nested modules
// (benchmark/).
func TestInvariants(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod := modulePath(t, root)
	l := vettest.NewLoader(root, mod)

	var pkgs []*build.Package
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		bp.ImportPath = mod
		if rel != "." {
			bp.ImportPath += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.Load(bp.ImportPath); err != nil {
			return fmt.Errorf("load %s: %w", bp.ImportPath, err)
		}
		pkgs = append(pkgs, bp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	atomic := make(map[*types.Var]bool)
	seen := make(map[string]bool) // a package and its test variant share GoFiles
	run := func(p *analysis.Pass) {
		p.Atomic = atomic
		for _, pass := range passes {
			pass(p)
		}
		for _, d := range p.Diagnostics {
			pos := l.Fset.Position(d.Pos)
			if rel, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = rel
			}
			msg := fmt.Sprintf("%s: %s", pos, d.Message)
			if !seen[msg] {
				seen[msg] = true
				t.Error(msg)
			}
		}
	}
	for _, p := range l.Order { // dependencies first, so facts flow forward
		run(p)
	}
	for _, bp := range pkgs {
		imp := types.Importer(l)
		if len(bp.TestGoFiles) > 0 {
			tp, err := l.Check(bp.ImportPath, bp.Dir, append(bp.GoFiles, bp.TestGoFiles...), l)
			if err != nil {
				t.Fatalf("check %s with its tests: %v", bp.ImportPath, err)
			}
			run(tp)
			// The external test package sees the package with its tests.
			imp = importerFunc(func(path string) (*types.Package, error) {
				if path == bp.ImportPath {
					return tp.Pkg, nil
				}
				return l.Import(path)
			})
		}
		if len(bp.XTestGoFiles) > 0 {
			xp, err := l.Check(bp.ImportPath+"_test", bp.Dir, bp.XTestGoFiles, imp)
			if err != nil {
				t.Fatalf("check %s_test: %v", bp.ImportPath, err)
			}
			run(xp)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath reads the module line of root/go.mod.
func modulePath(t *testing.T, root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	t.Fatal("go.mod has no module line")
	return ""
}
