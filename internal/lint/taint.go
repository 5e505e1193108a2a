package lint

import (
	"go/ast"
	"go/types"
)

// taintFacts maps a source check (CheckWallclock, CheckRand) to a witness
// call chain from a function to that source, e.g. [util.Stamp, time.Now].
// A missing entry means the function is clean for that check.
type taintFacts map[string][]string

// sourceChecks are the checks whose sources taint propagates, in the
// fixed order the call-graph walk merges a callee's facts.
var sourceChecks = []string{CheckWallclock, CheckRand}

// calleeFunc resolves a call expression to the named function or method
// it invokes, or nil for closures, function values and builtins.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// shortFuncName renders pkg.Func or pkg.Type.Method for diagnostics.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// taint computes taint facts by walking the function body. The second
// result reports completeness: results computed while a call-graph cycle
// is open are correct for the caller but under-explored, so they are not
// memoized (direct sources are always seen by their own function's walk,
// which keeps values exact; only caching is affected).
//
// Wallclock taint does not propagate out of the sanctioned packages (cmd/,
// internal/trace): functions defined there may read the wall clock by
// policy, so calling them is not a violation. Rand taint has no sanctioned
// packages, matching the direct check.
func (m *modState) taint(fn *types.Func) (taintFacts, bool) {
	if facts, ok := m.taints[fn]; ok {
		return facts, true
	}
	if m.taintRun[fn] {
		return nil, false
	}
	m.taintRun[fn] = true
	defer delete(m.taintRun, fn)

	facts := taintFacts{}
	complete := true
	decl, p := m.declOf(fn)
	if decl == nil || decl.Body == nil {
		m.taints[fn] = facts
		return facts, true
	}
	wallSanctioned := pathAllowed(fn.Pkg().Path(), m.rc.wallclockAllow)
	self := shortFuncName(fn)
	add := func(check string, chain ...string) {
		if facts[check] == nil && !(check == CheckWallclock && wallSanctioned) {
			facts[check] = append([]string{self}, chain...)
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if check, name := source(p, n); check != "" {
				add(check, name)
			}
		case *ast.CallExpr:
			callee := calleeFunc(p, n)
			if callee == nil || callee == fn || !m.inModule(callee.Pkg()) {
				return true
			}
			child, done := m.taint(callee)
			if !done {
				complete = false
			}
			for _, check := range sourceChecks {
				if chain := child[check]; chain != nil {
					add(check, chain...)
				}
			}
		}
		return true
	})
	if complete {
		m.taints[fn] = facts
	}
	return facts, complete
}
