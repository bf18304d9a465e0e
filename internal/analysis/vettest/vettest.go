// Package vettest loads Go packages from source for the invariant
// passes and checks fixture diagnostics against "// want" comments.
//
// One Loader serves two trees. A fixture tree (prefix "") mirrors
// analysistest's layout,
//
//	testdata/src/<import/path>/*.go
//
// where every import that names a directory under testdata/src is
// another fixture package. A module tree (prefix = module path) maps
// <module>/<dir> to root/<dir>. Either way every package the tree
// provides is type-checked from source exactly once, dependencies
// first, and everything else resolves to the standard library's source:
// one universe, so a field a pass marked in one package is the same
// *types.Var in every package that imports it.
//
// Expectations are end-of-line comments of the form
//
//	expr // want "regexp"
//	expr // want `regexp` "second regexp"
//
// Each regexp must match the message of a diagnostic reported on that
// line; diagnostics with no matching want, and wants with no matching
// diagnostic, fail the test.
package vettest

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads the fixture package at testdata/src/<path> (testdata is
// resolved relative to the test's working directory), runs pass over
// it and all fixture packages it imports, and reports every mismatch
// between diagnostics and want comments as a test error.
func Run(t *testing.T, testdata string, pass func(*analysis.Pass), path string) {
	t.Helper()
	l := NewLoader(filepath.Join(testdata, "src"), "")
	if _, err := l.Load(path); err != nil {
		t.Fatalf("load %s: %v", path, err)
	}

	atomic := make(map[*types.Var]bool)
	var diags []diag
	for _, p := range l.Order { // dependencies first, so facts flow forward
		p.Atomic = atomic
		pass(p)
		for _, d := range p.Diagnostics {
			pos := l.Fset.Position(d.Pos)
			diags = append(diags, diag{file: pos.Filename, line: pos.Line, msg: d.Message})
		}
	}

	wants := collectWants(t, l)
	matchDiagnostics(t, wants, diags)
}

// diag is one reported diagnostic, positioned by file and line.
type diag struct {
	file string
	line int
	msg  string
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// Loader type-checks the packages of one source tree, recursively
// resolving the tree's own imports and falling back to the standard
// library's source for the rest.
type Loader struct {
	Fset  *token.FileSet
	Order []*analysis.Pass // every package Load checked, dependencies first

	root   string
	prefix string
	std    types.Importer
	pkgs   map[string]*analysis.Pass
}

// NewLoader returns a loader for the tree at root whose packages have
// import paths under prefix ("" for a fixture tree).
func NewLoader(root, prefix string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		root:   root,
		prefix: prefix,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*analysis.Pass),
	}
}

// dir maps an import path to its directory in the tree, if the tree
// provides it.
func (l *Loader) dir(path string) (string, bool) {
	rel := path
	if l.prefix != "" {
		if path != l.prefix && !strings.HasPrefix(path, l.prefix+"/") {
			return "", false
		}
		rel = strings.TrimPrefix(strings.TrimPrefix(path, l.prefix), "/")
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	fi, err := os.Stat(dir)
	return dir, err == nil && fi.IsDir()
}

// Import implements types.Importer over the tree: its packages shadow
// everything else; the rest is standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dir(path); !ok {
		return l.std.Import(path)
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Pkg, nil
}

// Load parses and type-checks the tree's package at path once. A module
// package is its build-selected GoFiles; a fixture package also takes
// its in-package _test.go files, so the passes' test-file exemptions
// are exercised.
func (l *Loader) Load(path string) (*analysis.Pass, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, _ := l.dir(path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if l.prefix == "" {
		names = append(names, bp.TestGoFiles...)
	}
	p, err := l.Check(path, dir, names, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.Order = append(l.Order, p)
	return p, nil
}

// Check parses the named files of dir and type-checks them as package
// path against imp, without recording the result: the module walk uses
// it for a package's test variants.
func (l *Loader) Check(path, dir string, names []string, imp types.Importer) (*analysis.Pass, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, err
	}
	return &analysis.Pass{Fset: l.Fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants parses every "// want" comment in the loaded fixture
// files into line-anchored expectations.
func collectWants(t *testing.T, l *Loader) []*want {
	t.Helper()
	var wants []*want
	for _, p := range l.Order {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := l.Fset.Position(c.Pos())
					for _, pat := range splitPatterns(m[1]) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// splitPatterns extracts the quoted regexps of a want comment body:
// "..." (interpreted) or `...` (raw), space-separated.
func splitPatterns(s string) []string {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end >= len(s) {
				return pats
			}
			if unq, err := strconv.Unquote(s[:end+1]); err == nil {
				pats = append(pats, unq)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return pats
			}
			pats = append(pats, s[1:1+end])
			s = strings.TrimSpace(s[2+end:])
		default:
			return pats
		}
	}
	return pats
}

// matchDiagnostics pairs diagnostics with wants and reports every
// leftover on either side.
func matchDiagnostics(t *testing.T, wants []*want, diags []diag) {
	t.Helper()
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].file != diags[j].file {
			return diags[i].file < diags[j].file
		}
		return diags[i].line < diags[j].line
	})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.used || w.file != d.file || w.line != d.line || !w.re.MatchString(d.msg) {
				continue
			}
			w.used = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(d.file), d.line, d.msg)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
}
