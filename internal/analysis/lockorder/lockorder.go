// Package lockorder guards the store's multi-object atomics protocol.
//
// The striped store (and the sharded OCC controller) stay deadlock-free
// because every code path that needs more than one stripe acquires the
// stripes in ascending index order — in practice, by iterating the
// stripe slice with a range loop (range order is ascending by
// construction). A second stripe lock taken while one is held anywhere
// else is an unordered acquisition: two such paths running against each
// other deadlock.
//
// The pass recognizes a "lock family" by the type of the mutex's owner:
// acquiring a second lock whose owner has the same type as one already
// held (stripe/stripe, shard/shard) is flagged unless the acquisition
// site is inside a range loop. It also flags calls into other packages
// of this module made while a striped lock (a lock whose owner type is
// the element of some slice or array field, i.e. a stripe) is held:
// a cross-package call can re-enter the store and re-acquire.
//
// The analysis is intra-procedural and tracks statement order, not full
// control flow; the rare provably-safe nesting it cannot see takes a
// //rodain:allow lockorder directive.
package lockorder

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/rodainallow"
)

type heldLock struct {
	owner string     // rendered owner expression, for unlock matching
	typ   types.Type // owner type, the lock family
}

// frame is the per-function analysis state.
type frame struct {
	held       []heldLock
	rangeDepth int
	deferDepth int
}

// Run is the lockorder pass: a second stripe lock while one is held
// must be an ascending (range-loop) acquisition, and no cross-package
// call may be made under a stripe lock.
func Run(pass *analysis.Pass) {
	allow := rodainallow.New(pass)
	striped := stripedTypes(pass.Pkg)

	var stack []*frame // one frame per enclosing func literal/decl
	top := func() *frame {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1]
	}

	analysis.Nodes(pass.NonTestFiles(), func(n ast.Node, push bool) {
		switch n := n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if push {
				stack = append(stack, &frame{})
			} else {
				stack = stack[:len(stack)-1]
			}
		case *ast.RangeStmt:
			if f := top(); f != nil {
				if push {
					f.rangeDepth++
				} else {
					f.rangeDepth--
				}
			}
		case *ast.DeferStmt:
			// A deferred unlock runs at function exit, not here: it must
			// not clear the held set at its source position.
			if f := top(); f != nil {
				if push {
					f.deferDepth++
				} else {
					f.deferDepth--
				}
			}
		case *ast.CallExpr:
			if push {
				visitCall(pass, allow, striped, top(), n)
			}
		}
	})
}

func visitCall(pass *analysis.Pass, allow *rodainallow.Index, striped map[types.Type]bool, f *frame, call *ast.CallExpr) {
	if f == nil || f.deferDepth > 0 {
		return
	}
	owner, typ, name := lockOp(pass, call)
	switch name {
	case "Lock", "RLock":
		for _, h := range f.held {
			if types.Identical(h.typ, typ) && f.rangeDepth == 0 && !allow.Allowed("lockorder", call.Pos()) {
				pass.Reportf(call.Pos(), "acquiring a second %s lock (%s) while %s is held: multi-stripe acquisition must iterate stripes in ascending order (range loop) (or annotate with //rodain:allow lockorder)",
					typeName(typ), owner, h.owner)
				break
			}
		}
		f.held = append(f.held, heldLock{owner: owner, typ: typ})
	case "Unlock", "RUnlock":
		for i := len(f.held) - 1; i >= 0; i-- {
			if f.held[i].owner == owner && types.Identical(f.held[i].typ, typ) {
				f.held = append(f.held[:i], f.held[i+1:]...)
				break
			}
		}
	default:
		// Any other call while a striped lock is held: flag if it leaves
		// this package for another package of this module.
		holdingStripe := ""
		for _, h := range f.held {
			if striped[h.typ] {
				holdingStripe = h.owner
				break
			}
		}
		if holdingStripe == "" {
			return
		}
		fn := callee(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
			return
		}
		if !strings.Contains(fn.Pkg().Path(), "internal/") {
			return // stdlib and external helpers cannot re-enter our locks
		}
		if allow.Allowed("lockorder", call.Pos()) {
			return
		}
		pass.Reportf(call.Pos(), "call to %s.%s while holding stripe lock %s: cross-package calls under a stripe lock can re-enter and deadlock (or annotate with //rodain:allow lockorder)",
			fn.Pkg().Name(), fn.Name(), holdingStripe)
	}
}

// lockOp decodes a mutex Lock/RLock/Unlock/RUnlock call, returning the
// rendered owner expression, the owner's type (the lock family), and
// the operation name. name is "" for any other call.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (owner string, typ types.Type, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil, ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, ""
	}
	// Owner of the mutex: for x.mu.Lock() the owner is x; for an
	// embedded mutex (x.Lock()) the owner is x itself.
	ownerExpr := sel.X
	if inner, ok := sel.X.(*ast.SelectorExpr); ok && isMutexType(pass.TypesInfo.TypeOf(sel.X)) {
		ownerExpr = inner.X
	}
	t := pass.TypesInfo.TypeOf(ownerExpr)
	if t == nil {
		return "", nil, ""
	}
	return types.ExprString(ownerExpr), deref(t), sel.Sel.Name
}

func isMutexType(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func typeName(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// stripedTypes collects the lock-stripe element types of the package:
// every named type that appears as the element of a slice or array
// field of some struct (store.stripe, occ.shard, ...).
func stripedTypes(pkg *types.Package) map[types.Type]bool {
	striped := make(map[types.Type]bool)
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			var elem types.Type
			switch ft := st.Field(i).Type().Underlying().(type) {
			case *types.Slice:
				elem = ft.Elem()
			case *types.Array:
				elem = ft.Elem()
			default:
				continue
			}
			if _, ok := deref(elem).(*types.Named); ok {
				striped[deref(elem)] = true
			}
		}
	}
	return striped
}
