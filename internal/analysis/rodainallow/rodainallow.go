// Package rodainallow parses //rodain:allow escape comments, the one
// sanctioned way to silence an invariant pass at a call site that is
// deliberately outside its invariant (the wall-clock implementation
// itself, a measurement harness, a best-effort sync on a teardown
// path). The directive names the passes it silences, so an exemption
// from one invariant never leaks into another:
//
//	//rodain:allow wallclock (the clock implementation is the one place real time enters)
//	//rodain:allow wallclock,durability reason...
//
// A directive on its own line exempts the next line; a trailing
// directive exempts its own line.
package rodainallow

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/analysis"
)

const prefix = "//rodain:allow"

// Index records, per file and line, which passes have been exempted.
type Index struct {
	fset  *token.FileSet
	lines map[string]map[int]map[string]bool // filename -> line -> pass set
}

// New scans every file of pass for //rodain:allow directives.
func New(pass *analysis.Pass) *Index {
	ix := &Index{fset: pass.Fset, lines: make(map[string]map[int]map[string]bool)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ix.add(c)
			}
		}
	}
	return ix
}

func (ix *Index) add(c *ast.Comment) {
	if !strings.HasPrefix(c.Text, prefix) {
		return
	}
	rest := strings.TrimPrefix(c.Text, prefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return // e.g. //rodain:allowother
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return
	}
	pos := ix.fset.Position(c.Pos())
	byLine := ix.lines[pos.Filename]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		ix.lines[pos.Filename] = byLine
	}
	// The directive covers its own line (trailing comment) and the next
	// (standalone comment above the exempted statement).
	for _, line := range []int{pos.Line, pos.Line + 1} {
		set := byLine[line]
		if set == nil {
			set = make(map[string]bool)
			byLine[line] = set
		}
		for _, name := range strings.Split(fields[0], ",") {
			if name != "" {
				set[name] = true
			}
		}
	}
}

// Allowed reports whether a diagnostic from the named pass at pos has
// been exempted.
func (ix *Index) Allowed(name string, pos token.Pos) bool {
	p := ix.fset.Position(pos)
	return ix.lines[p.Filename][p.Line][name]
}
