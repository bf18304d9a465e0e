package rodain

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests: in the CI workflow, every |-alternative of a
// quoted -run pattern, and every -fuzz target, matches a test, example or
// fuzz target of a package its step runs. A renamed or deleted test
// would otherwise drop out of a soak or fuzz step without any failure.
func TestCIPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	fuzzFlag := regexp.MustCompile(`-fuzz (\S+)`)
	for _, line := range strings.Split(string(ci), "\n") {
		runPat, fuzz := runFlag.FindStringSubmatch(line), fuzzFlag.FindStringSubmatch(line)
		if runPat == nil && fuzz == nil {
			continue
		}
		var names []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				names = append(names, testNames(t, f)...)
			}
		}
		var alts []string
		if runPat != nil {
			alts = strings.Split(runPat[1], "|")
		}
		if fuzz != nil {
			alts = append(alts, fuzz[1])
		}
		for _, alt := range alts {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%q: %v", alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("%q matches no test of the packages its step runs:\n%s", alt, strings.TrimSpace(line))
			}
		}
	}
}

// testNames returns the Test, Fuzz and Example functions of the package
// in dir, in-package and external tests alike.
func testNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s (%v)", dir, err)
	}
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") ||
				strings.HasPrefix(fn.Name.Name, "Fuzz") || strings.HasPrefix(fn.Name.Name, "Example")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
