package lint

import "go/ast"

// Analyzer is one registered check: a stable name (the directive
// vocabulary), a one-line doc string (rendered by `caislint -list` and
// asserted against the README's check table), and the pass itself.
// Every analyzer must come with golden fixtures under testdata/src
// exercising at least one positive and one suppressed case — the
// registry test enforces that.
type Analyzer struct {
	Name string
	Doc  string
	run  func(*Pass)
}

// Pass is the per-package analysis context handed to each analyzer: the
// type-checked package under analysis, the module-derived policy, and a
// whole-module view for the cross-package passes (wallclock and rand
// follow the call graph into dependency bodies, exhaustive reads enum
// const blocks from their declaring package).
type Pass struct {
	Pkg *Package
	rc  *resolved
	mod *modState
	rep reporter
}

// perFile adapts the single-file checks to the per-package run signature.
func perFile(fn func(*Package, *ast.File, *resolved, reporter)) func(*Pass) {
	return func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			fn(pass.Pkg, f, pass.rc, pass.rep)
		}
	}
}

// registry lists every analyzer in reporting-vocabulary order. The order
// is cosmetic (diagnostics sort by position), but -list and the README
// table render it as written here.
var registry = []*Analyzer{
	{
		Name: CheckWallclock,
		Doc:  "time.Now/Since/Until, directly or through a chain of module calls, forbidden outside cmd/ and internal/trace; simulated code uses sim.Engine time",
		run:  checkWallclock,
	},
	{
		Name: CheckRand,
		Doc:  "global math/rand(/v2) functions, directly or through a chain of module calls, forbidden everywhere; only seeded generators (sim.RNG, rand.New) are allowed",
		run:  checkRand,
	},
	{
		Name: CheckMapOrder,
		Doc:  "for-range over a map must iterate sorted keys; the one body allowed is collecting the range key (keys = append(keys, k))",
		run:  perFile(checkMapOrder),
	},
	{
		Name: CheckUnits,
		Doc:  "raw float-to-sim.Time conversions outside internal/sim and float accumulation of time values are forbidden",
		run:  perFile(checkUnits),
	},
	{
		Name: CheckGoroutine,
		Doc:  "go statements forbidden in the engine packages and outside the sanctioned concurrency sites (internal/sweep, cmd/)",
		run:  perFile(checkGoroutine),
	},
	{
		Name: CheckExhaustive,
		Doc:  "switches and map literals over enum-like const blocks must cover every declared constant or carry an explicit default",
		run:  checkExhaustive,
	},
}

// Analyzers returns the registered checks in registry order.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	return out
}
