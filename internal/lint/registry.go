package lint

import (
	"fmt"
	"go/ast"
)

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
// type-checked package under analysis, the resolved policy config, and a
// whole-module view for the cross-package passes (taintwall follows the
// call graph into dependency bodies, exhaustive reads enum const blocks
// from their declaring package).
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
		Doc:  "time.Now/Since/Until forbidden outside cmd/ and internal/trace; simulated code uses sim.Engine time",
		run:  perFile(checkWallclock),
	},
	{
		Name: CheckRand,
		Doc:  "global math/rand(/v2) functions forbidden everywhere; only seeded generators (sim.RNG, rand.New) are allowed",
		run:  perFile(checkRand),
	},
	{
		Name: CheckMapOrder,
		Doc:  "for-range over a map with an order-dependent body must iterate sorted keys instead",
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
		Name: CheckPoolReset,
		Doc:  "pool.Pool element types need a reset() method and every Put(x) must be immediately preceded by x.reset()",
		run:  perFile(checkPoolReset),
	},
	{
		Name: CheckExhaustive,
		Doc:  "switches and map literals over enum-like const blocks must cover every declared constant or carry an explicit default",
		run:  checkExhaustive,
	},
	{
		Name: CheckTaintWall,
		Doc:  "calls to module functions that transitively reach time.Now or the global math/rand source are flagged at every call site",
		run:  checkTaintWall,
	},
}

// Analyzers returns the registered checks in registry order.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	return out
}

// selectAnalyzers resolves the Config.Checks subset (empty = all),
// rejecting unknown names so a typo in -checks fails loudly instead of
// silently running nothing.
func selectAnalyzers(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return Analyzers(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range registry {
		byName[a.Name] = a
	}
	var out []*Analyzer
	seen := map[string]bool{}
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (run caislint -list for the catalog)", n)
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, a)
	}
	// Preserve registry order regardless of the requested order, so
	// partial runs report identically to full runs.
	var ordered []*Analyzer
	for _, a := range registry {
		if seen[a.Name] {
			ordered = append(ordered, a)
		}
	}
	return ordered, nil
}
