// Package atomicfield enforces all-or-nothing atomic access to struct
// fields.
//
// A field that is written with sync/atomic anywhere must be read and
// written with sync/atomic everywhere: one plain load of the engine's
// doomed flag, or of the lock-free log Stats counters, is a data race
// that the race detector only catches if a test happens to interleave
// it. The pass records every field whose address is passed to a
// sync/atomic operation (atomic.AddUint64(&s.n, 1) and friends) in
// Pass.Atomic — so cross-package misuse is caught too — and then flags
// every other plain selector access to such a field.
//
// Fields of the typed atomic.Int64/Uint64/Bool/... kinds need no pass:
// their type makes non-atomic access impossible. Constructor-time plain
// initialization before the value is published takes a
// //rodain:allow atomicfield directive.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/rodainallow"
)

// Run is the atomicfield pass: a field accessed via sync/atomic must
// never be read or written non-atomically.
func Run(pass *analysis.Pass) {
	allow := rodainallow.New(pass)

	// Pass 1: find every &x.f handed to a sync/atomic call. The selector
	// positions are sanctioned (they ARE the atomic access); the field
	// objects become facts.
	sanctioned := make(map[token.Pos]bool)
	localAtomic := make(map[*types.Var]bool) // includes imported fields this package touches atomically
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := un.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				field := fieldObject(pass, sel)
				if field == nil {
					continue
				}
				sanctioned[sel.Sel.Pos()] = true
				localAtomic[field] = true
				if field.Pkg() == pass.Pkg {
					pass.Atomic[field] = true
				}
			}
			return true
		})
	}

	// Pass 2: any other selector touching a marked field — declared in
	// this package (fact just recorded) or imported (fact from upstream)
	// — is a non-atomic access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel.Sel.Pos()] {
				return true
			}
			field := fieldObject(pass, sel)
			if field == nil || !localAtomic[field] && !pass.Atomic[field] {
				return true
			}
			if !allow.Allowed("atomicfield", sel.Pos()) {
				pass.Reportf(sel.Pos(), "non-atomic access to field %s, which is accessed via sync/atomic elsewhere (or annotate with //rodain:allow atomicfield)", field.Name())
			}
			return true
		})
	}
}

// isAtomicCall reports whether call is a package-level sync/atomic
// operation (Load/Store/Add/Swap/CompareAndSwap variants).
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	return fn.Type().(*types.Signature).Recv() == nil
}

// fieldObject resolves sel to the struct field it selects, if any.
func fieldObject(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return nil
	}
	return obj
}
