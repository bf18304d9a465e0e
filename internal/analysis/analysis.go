// Package analysis is the repository's static-analysis gate: five
// passes that enforce the engine's concurrency and durability
// invariants (DESIGN.md §9). Each pass is a plain func Run(*Pass) over
// one type-checked package; TestInvariants runs all five over every
// package of the module, so `go test ./...` enforces them.
// Exemptions are per-line //rodain:allow directives (package
// rodainallow).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Pass is one type-checked package handed to a pass.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Atomic is atomicfield's cross-package fact set: the struct fields
	// some package passed to sync/atomic. Every package of one run is
	// type-checked from source in one universe and passed dependencies
	// first, so an imported field is the very *types.Var its own package
	// marked here.
	Atomic map[*types.Var]bool

	// Diagnostics collects what Reportf reported.
	Diagnostics []Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Diagnostics = append(p.Diagnostics, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NonTestFiles returns the package's files other than _test.go files,
// for the passes whose invariant binds product code only.
func (p *Pass) NonTestFiles() []*ast.File {
	var files []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	return files
}

// Nodes walks files depth-first like ast.Inspect, calling f(n, true) on
// the way into every node and f(n, false) on the way out, so a pass can
// scope state to the enclosing function or loop.
func Nodes(files []*ast.File, f func(n ast.Node, push bool)) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				f(stack[len(stack)-1], false)
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			f(n, true)
			return true
		})
	}
}
