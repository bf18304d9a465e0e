// Package durability flags ignored errors from log-device and WAL
// writes.
//
// The engine's crash-consistency property — every acknowledged commit
// is covered by a completed sync — only holds if every Append,
// AppendBatch and Sync on a log device, and every WAL encode that
// feeds one, has its error checked. An ignored Sync error acks a
// transaction whose log may not be on stable media; an ignored Append
// error corrupts the redo stream the mirror and recovery replay.
//
// A "log device" is recognized structurally: any type (or interface)
// whose method set includes Append([]byte) error and Sync() error —
// the logstore.Store contract — so the pass needs no dependency on the
// logstore package and covers test doubles too. WAL writer calls are
// matched by package name: wal.Encode and the checkpoint trailer writer
// that closes a checkpoint group. The checkpoint publish path
// is covered too: (*os.File).Sync and os.Rename — a dropped error there
// lets a checkpoint that never reached disk justify truncating the log.
//
// Both silently dropped results (s.Sync() as a statement, go/defer
// s.Sync()) and explicit discards (_ = s.Sync()) are flagged; a
// deliberate best-effort call on a teardown path takes a
// //rodain:allow durability directive. Test files are exempt: tests
// routinely model the crashes these errors signal.
package durability

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/rodainallow"
)

// storeMethods are the logstore.Store operations whose errors carry the
// durability of acknowledged commits.
var storeMethods = map[string]bool{
	"Append":      true,
	"AppendBatch": true,
	"Sync":        true,
}

// walFuncs are the package-level WAL writers whose errors mean the redo
// stream — or a checkpoint a truncated log depends on — was not written.
var walFuncs = map[string]bool{
	"Encode":                 true,
	"WriteCheckpointTrailer": true,
}

// osFuncs are the os-package calls on the checkpoint publish path whose
// errors, if dropped, let a checkpoint that never reached disk justify
// truncating the log: the rename that publishes checkpoint.tmp, and the
// file/directory fsync that makes it durable ((*os.File).Sync is matched
// as a method, below).
var osFuncs = map[string]bool{
	"Rename": true,
}

// Run is the durability pass: it flags ignored errors from log-device
// Append/AppendBatch/Sync and WAL writes.
func Run(pass *analysis.Pass) {
	allow := rodainallow.New(pass)

	report := func(call *ast.CallExpr, how string) {
		name := calleeName(call)
		if allow.Allowed("durability", call.Pos()) {
			return
		}
		pass.Reportf(call.Pos(), "%s error %s: an unchecked log write breaks the acked⟹synced crash-consistency property (or annotate with //rodain:allow durability)", name, how)
	}

	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && critical(pass, call) {
				report(call, "ignored")
			}
		case *ast.GoStmt:
			if critical(pass, n.Call) {
				report(n.Call, "ignored (go statement)")
			}
		case *ast.DeferStmt:
			if critical(pass, n.Call) {
				report(n.Call, "ignored (deferred)")
			}
		case *ast.AssignStmt:
			// _ = s.Sync() and err-position blanks in multi-assign.
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != "_" {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					// Multi-value call: only the error result matters,
					// and every critical callee returns error last.
					if i != len(n.Lhs)-1 {
						continue
					}
					rhs = n.Rhs[0]
				}
				if call, ok := rhs.(*ast.CallExpr); ok && critical(pass, call) {
					report(call, "discarded into _")
				}
			}
		}
		return true
	}
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, visit)
	}
}

func calleeName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "call"
}

// critical reports whether call is a durability-critical write whose
// (last) result is an error.
func critical(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return false
	}
	if sig.Recv() != nil {
		// Method call: a log device, or an os.File fsync (checkpoint
		// files and directories are made durable through it)?
		if storeMethods[fn.Name()] && isLogDevice(sig.Recv().Type()) {
			return true
		}
		return fn.Name() == "Sync" && isOSFile(sig.Recv().Type())
	}
	if fn.Pkg() == nil {
		return false
	}
	// Package-level call: a WAL writer, or a checkpoint-publishing os
	// call?
	if fn.Pkg().Name() == "wal" && walFuncs[fn.Name()] {
		return true
	}
	return fn.Pkg().Path() == "os" && osFuncs[fn.Name()]
}

// isOSFile reports whether t is *os.File or os.File.
func isOSFile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "os" && n.Obj().Name() == "File"
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	t, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && t.Obj().Pkg() == nil && t.Obj().Name() == "error"
}

// isLogDevice reports whether t's method set carries the logstore.Store
// write contract: Append([]byte) error and Sync() error.
func isLogDevice(t types.Type) bool {
	return hasMethod(t, "Append", func(sig *types.Signature) bool {
		if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
			return false
		}
		sl, ok := sig.Params().At(0).Type().Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte && lastResultIsError(sig)
	}) && hasMethod(t, "Sync", func(sig *types.Signature) bool {
		return sig.Params().Len() == 0 && sig.Results().Len() == 1 && lastResultIsError(sig)
	})
}

func hasMethod(t types.Type, name string, match func(*types.Signature) bool) bool {
	// Use the pointer method set for addressable receivers.
	if _, ok := t.Underlying().(*types.Interface); !ok {
		if _, ok := t.(*types.Pointer); !ok {
			t = types.NewPointer(t)
		}
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		if m.Name() != name {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		return ok && match(sig)
	}
	return false
}
