// Package borrowedview keeps zero-copy reads zero-copy AND safe.
//
// store.View, store.ViewMeta, store.ViewVersion and the transaction-level
// ReadView return slices that borrow the store's own memory: valid to
// read, never to stash. A caller that stores a borrowed slice into a struct field, a
// package variable, or a channel extends the borrow past the read —
// the slice silently stops reflecting the database after the next
// overwrite, and a later reader sees stale bytes with no race report.
// The sanctioned pattern is decode-and-discard (or copy with
// append/copy, which the pass does not flag because the stored value
// is then owned).
//
// The pass tracks, per function, the local variables bound to a
// borrowed result and flags the statements that let the slice header
// itself escape: assignment to a field or package-level variable
// (directly, via composite literal, or as an append element) and
// channel sends. Passing the borrow to a function or returning it is
// not flagged — the callee/caller inherits the same obligation.
package borrowedview

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/rodainallow"
)

// borrowMethods are the zero-copy read entry points. They are matched
// by name and a first []byte result, so the pass covers store.Store,
// txn.Transaction, core.Tx and any future wrapper uniformly.
var borrowMethods = map[string]bool{
	"View":        true,
	"ViewMeta":    true,
	"ViewVersion": true,
	"ReadView":    true,
}

// Run is the borrowedview pass: View/ReadView borrowed slices must not
// escape into fields, globals or channels.
func Run(pass *analysis.Pass) {
	allow := rodainallow.New(pass)

	// Borrowed locals are tracked per enclosing function.
	type frame struct {
		borrowed map[*types.Var]bool
	}
	var stack []*frame
	top := func() *frame {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1]
	}

	report := func(pos ast.Node, what string) {
		if allow.Allowed("borrowedview", pos.Pos()) {
			return
		}
		pass.Reportf(pos.Pos(), "borrowed View/ReadView slice escapes into %s: the borrow is only valid until the next overwrite — copy the bytes instead (or annotate with //rodain:allow borrowedview)", what)
	}

	// isBorrowed reports whether e evaluates to a borrowed slice: a
	// tracked local, or a borrow call's direct result.
	isBorrowed := func(f *frame, e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[e].(*types.Var)
			return ok && f != nil && f.borrowed[v]
		case *ast.CallExpr:
			return isBorrowCall(pass, e)
		}
		return false
	}

	// escapingValue reports whether storing e stores a borrowed slice
	// header: e itself borrowed, a composite literal carrying one, or an
	// append with a borrowed element.
	var escapingValue func(f *frame, e ast.Expr) bool
	escapingValue = func(f *frame, e ast.Expr) bool {
		if isBorrowed(f, e) {
			return true
		}
		switch e := e.(type) {
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if escapingValue(f, el) {
					return true
				}
			}
		case *ast.UnaryExpr:
			return escapingValue(f, e.X)
		case *ast.CallExpr:
			// append(list, v) stores the header; append(dst, v...) copies.
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" && e.Ellipsis == 0 {
				for _, arg := range e.Args[1:] {
					if escapingValue(f, arg) {
						return true
					}
				}
			}
		}
		return false
	}

	analysis.Nodes(pass.Files, func(n ast.Node, push bool) {
		switch n := n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if push {
				stack = append(stack, &frame{borrowed: make(map[*types.Var]bool)})
			} else {
				stack = stack[:len(stack)-1]
			}
		case *ast.AssignStmt:
			if !push {
				return
			}
			f := top()
			if f == nil {
				return
			}
			// First: does this statement bind or clear borrowed locals?
			// v, ok := s.View(id) marks v; v = anythingElse clears it.
			fromBorrow := len(n.Rhs) == 1 && isBorrowCall(pass, n.Rhs[0])
			for i, lhs := range n.Lhs {
				id, isIdent := lhs.(*ast.Ident)
				if isIdent && id.Name == "_" {
					continue // discarding a borrow is the sanctioned pattern
				}
				if isIdent {
					if v, ok := defOrUse(pass, id); ok {
						switch {
						case fromBorrow && i == 0 && isByteSlice(v.Type()):
							f.borrowed[v] = true
						case len(n.Rhs) == len(n.Lhs) && isBorrowed(f, n.Rhs[i]):
							f.borrowed[v] = true // alias of a borrow
						default:
							delete(f.borrowed, v) // overwritten with owned data
						}
						continue
					}
				}
				// Second: storing into a field, package var or element of
				// one lets the borrow escape.
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
					if fromBorrow && i != 0 {
						continue // multi-result borrow call: later positions get ok/ts values, not the slice
					}
				}
				if rhs == nil || !escapingValue(f, rhs) {
					continue
				}
				switch dst := lhs.(type) {
				case *ast.SelectorExpr:
					report(n, "field "+types.ExprString(dst))
				case *ast.IndexExpr:
					report(n, "element of "+types.ExprString(dst.X))
				case *ast.Ident:
					report(n, "package variable "+dst.Name)
				}
			}
		case *ast.SendStmt:
			if push {
				if f := top(); f != nil && escapingValue(f, n.Value) {
					report(n, "a channel")
				}
			}
		}
	})
}

// defOrUse resolves an identifier on the LHS of an assignment to the
// local variable it names (nil, false for fields, globals and _).
func defOrUse(pass *analysis.Pass, id *ast.Ident) (*types.Var, bool) {
	var obj types.Object
	if d, ok := pass.TypesInfo.Defs[id]; ok && d != nil {
		obj = d
	} else {
		obj = pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil, false
	}
	if v.Parent() == v.Pkg().Scope() {
		return nil, false // package-level var: storing into it is an escape
	}
	return v, true
}

// isBorrowCall reports whether call invokes a zero-copy read: a method
// named View/ViewMeta/ReadView whose first result is []byte.
func isBorrowCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !borrowMethods[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Results().Len() == 0 {
		return false
	}
	return isByteSlice(sig.Results().At(0).Type())
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
