// Package wallclock forbids direct wall-clock time in engine code.
//
// The engine's latency and availability numbers are only reproducible —
// and its simulated-time tests only deterministic — if every "what time
// is it" and "call me later" goes through simtime.Clock. A hard-coded
// time.Sleep on the hot path (the PR-3 shipper bug) blocks a commit on
// the wall clock no matter what clock the engine was configured with;
// a stray time.Now splits the timeline between virtual and real time.
//
// The pass flags any reference to the time package's clock-reading and
// timer primitives (time.Now, Sleep, Since, Until, After, Tick,
// NewTimer, NewTicker, AfterFunc) in non-test code of packages under
// internal/. Places where real time is the point — the wall-clock
// implementation itself, socket deadlines, measurement harnesses —
// carry a //rodain:allow wallclock directive.
package wallclock

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/rodainallow"
)

// forbidden are the time package functions that read or schedule on the
// wall clock. Pure data types and conversions (time.Duration,
// time.Time{}, time.Millisecond) stay legal: they carry no clock.
var forbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// scope restricts the pass to engine packages: those whose import path
// contains it. Commands, examples and the public facade sit outside.
const scope = "internal/"

// Run is the wallclock pass: it forbids time.Now/Sleep/timers in engine
// code, where all time must flow through simtime.Clock.
func Run(pass *analysis.Pass) {
	if !strings.Contains(pass.Pkg.Path(), scope) {
		return
	}
	allow := rodainallow.New(pass)
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !forbidden[sel.Sel.Name] {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil {
				return true // methods like Time.After carry no clock of their own
			}
			if !allow.Allowed("wallclock", sel.Pos()) {
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock: engine code must use simtime.Clock (or annotate with //rodain:allow wallclock)", sel.Sel.Name)
			}
			return true
		})
	}
}
