package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pkgOf resolves the package an identifier's selector base refers to,
// returning nil when the base is not a package name (so aliased imports
// are handled and shadowing local variables named "time" are not).
func pkgOf(p *Package, x ast.Expr) *types.Package {
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

// checkWallclock forbids wall-clock reads in simulated code: the engine's
// sim.Time is the only clock, so time.Now/Since/Until anywhere outside the
// CLI and tracing layers silently breaks replayability. A call to a module
// function that reaches the wall clock is a read too.
func checkWallclock(pass *Pass) {
	if pathAllowed(pass.Pkg.Path, pass.rc.wallclockAllow) {
		return
	}
	checkSource(pass, CheckWallclock,
		"%s reads the wall clock; simulated code must use sim.Engine time (allowed only under cmd/ and internal/trace)",
		"call to %s transitively reads the wall clock (%s); simulated code must use sim.Engine time")
}

// checkRand forbids the global math/rand functions: only explicitly
// seeded generators (sim.RNG, or *rand.Rand built via rand.New) keep runs
// reproducible across processes and Go versions. A call to a module
// function that reaches the global source is a use too.
func checkRand(pass *Pass) {
	checkSource(pass, CheckRand,
		"%s uses the unseeded global source; use sim.RNG (sim.NewRNG or a labeled sim.NewStreamRNG stream) or a *rand.Rand seeded from the run configuration",
		"call to %s transitively uses the unseeded global math/rand source (%s); thread a seeded generator (sim.RNG) instead")
}

// checkSource reports the uses of one nondeterminism source in a package:
// every direct use (formatted into direct with the source's name), and
// every call to a module function whose taint facts reach the source
// (formatted into transitive with the callee and the witness chain).
// Directives stay line-scoped, so an ignore on a helper's definition does
// not launder its call sites. Function values and closures are outside the
// call-graph walk; their bodies are still checked directly.
func checkSource(pass *Pass, check, direct, transitive string) {
	p := pass.Pkg
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if c, name := source(p, n); c == check {
					pass.rep(n.Pos(), check, direct, name)
				}
			case *ast.CallExpr:
				fn := calleeFunc(p, n)
				if fn == nil || !pass.mod.inModule(fn.Pkg()) {
					return true
				}
				facts, _ := pass.mod.taint(fn)
				if chain := facts[check]; chain != nil {
					pass.rep(n.Pos(), check, transitive, shortFuncName(fn), strings.Join(chain, " -> "))
				}
			}
			return true
		})
	}
}

// randAllowed are the math/rand entry points that construct seeded
// generators; everything else on the package (Intn, Float64, Shuffle,
// Seed, ...) goes through the unseeded global source.
var randAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
	"NewZipf":    true, // takes a *rand.Rand, so it is already seeded
}

// source classifies a selector as a nondeterminism source: CheckWallclock
// for time.Now/Since/Until, CheckRand for a global math/rand(/v2)
// function, "" otherwise. name is the qualified source ("time.Now").
func source(p *Package, sel *ast.SelectorExpr) (check, name string) {
	pkg := pkgOf(p, sel.X)
	if pkg == nil {
		return "", ""
	}
	name = pkg.Name() + "." + sel.Sel.Name
	switch pkg.Path() {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			return CheckWallclock, name
		}
	case "math/rand", "math/rand/v2":
		// Types (rand.Rand, rand.Source) are legitimate in signatures.
		if _, isType := p.Info.Uses[sel.Sel].(*types.TypeName); isType || randAllowed[sel.Sel.Name] {
			return "", ""
		}
		return CheckRand, name
	}
	return "", ""
}

// checkGoroutine polices `go` statements. Engine packages forbid them
// unconditionally: the discrete-event simulator is single-threaded by
// design, and a goroutine on the hot path reintroduces scheduler-dependent
// ordering. Everywhere else, concurrency must flow through the sanctioned
// sites (internal/sweep's bounded pool, cmd/) so that parallel sweeps keep
// the byte-identical-output contract instead of sprouting ad-hoc
// goroutines with their own result-ordering bugs.
func checkGoroutine(p *Package, f *ast.File, rc *resolved, rep reporter) {
	engine := rc.enginePkgs[p.Path]
	if !engine && pathAllowed(p.Path, rc.concurrencyAllow) {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if engine {
				rep(g.Pos(), CheckGoroutine,
					"go statement in engine package %s; the simulator is single-threaded — schedule an event on sim.Engine instead",
					p.Path)
			} else {
				rep(g.Pos(), CheckGoroutine,
					"go statement outside the sanctioned concurrency sites; fan independent points out with sweep.Map (internal/sweep) instead")
			}
		}
		return true
	})
}

// isTimeType reports whether t (or its pointer base) is the simulated-time
// type.
func isTimeType(rc *resolved, t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path()+"."+obj.Name() == rc.timeType
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// checkUnits enforces the typed-time boundary with go/types:
//
//  1. A conversion from a float expression to sim.Time truncates
//     picoseconds and must go through an audited helper in internal/sim
//     (Scale, DurationForBytes, DurationForFlops).
//  2. Accumulating simulated time into a float64 (`sum += float64(t)` or
//     `sum += t.Seconds()`) is flagged: float summation is
//     non-associative, so the result depends on accumulation order —
//     accumulate in sim.Time and convert once.
func checkUnits(p *Package, f *ast.File, rc *resolved, rep reporter) {
	if pathAllowed(p.Path, rc.unitAllow) {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			tv, ok := p.Info.Types[n.Fun]
			if !ok || !tv.IsType() || !isTimeType(rc, tv.Type) || len(n.Args) != 1 {
				return true
			}
			if isFloat(p.Info.TypeOf(n.Args[0])) {
				rep(n.Pos(), CheckUnits,
					"float-to-time conversion truncates picoseconds; use an audited sim helper (Scale, DurationForBytes, DurationForFlops)")
			}
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN {
				return true
			}
			if len(n.Lhs) != 1 || !isFloat(p.Info.TypeOf(n.Lhs[0])) {
				return true
			}
			if derivesFromTime(p, rc, n.Rhs[0]) {
				rep(n.Pos(), CheckUnits,
					"float accumulation of simulated-time values is order-dependent (non-associative); accumulate in sim.Time and convert once")
			}
		}
		return true
	})
}

// derivesFromTime reports whether an expression converts a simulated-time
// value to float — either a float(t) conversion or a unit method call on a
// time value (t.Seconds() and friends).
func derivesFromTime(p *Package, rc *resolved, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && isFloat(tv.Type) && len(call.Args) == 1 {
			if isTimeType(rc, p.Info.TypeOf(call.Args[0])) {
				found = true
				return false
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if isTimeType(rc, p.Info.TypeOf(sel.X)) && isFloat(p.Info.TypeOf(call)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
