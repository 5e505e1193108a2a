// Package lint is caislint: a project-specific static analyzer that
// enforces the simulator's determinism and unit-safety invariants. The
// whole reproduction (event ordering, merge-session bookkeeping,
// telemetry digests, memoized simulation points) is only meaningful if
// runs are bit-reproducible, so the checks guard the properties reviewers
// cannot reliably eyeball.
//
// The check catalog lives in registry.go; `caislint -list` prints it.
// The map-order, units and goroutine checks analyze one package at a
// time. The others reason across package boundaries:
//
//   - wallclock and rand: a use of time.Now/Since/Until or the global
//     math/rand source is flagged where it appears, and so is every call
//     to a module function that reaches one through any chain of
//     module-internal calls — a helper that wraps time.Now is flagged at
//     every call site in simulated code, with the witness chain.
//   - exhaustive: switches and map literals over enum-like const blocks
//     (faults.Kind, attrib.Bucket, ...) must cover every declared
//     constant or carry an explicit default.
//
// A violation that is intentional carries a directive naming one check
// and a mandatory reason, on its own line or the line above:
//
//	//caislint:ignore <check> <reason>
//
// A directive covers the line it sits on and the next, nothing more.
// Malformed directives and directives that suppress nothing are reported.
//
// The analyzer is pure stdlib (go/parser, go/ast, go/types, go/importer);
// it type-checks the module from source so the type-driven checks see
// real types, not syntax.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Msg)
}

// Check names. "directive" covers malformed or unused directives.
const (
	CheckWallclock  = "wallclock"
	CheckRand       = "rand"
	CheckMapOrder   = "map-order"
	CheckUnits      = "units"
	CheckGoroutine  = "goroutine"
	CheckExhaustive = "exhaustive"
	CheckDirective  = "directive"
)

// knownChecks is the directive vocabulary, derived from the registry.
var knownChecks = func() map[string]bool {
	m := map[string]bool{}
	for _, a := range registry {
		m[a.Name] = true
	}
	return m
}()

// Config selects what to analyze. The policy boundaries (which packages
// may read the wall clock, spawn goroutines or convert floats to time)
// derive from the module path, matching this repository's layout.
type Config struct {
	// Dir is the module root (a directory containing go.mod).
	Dir string
	// Patterns are package patterns relative to Dir ("./...", ".",
	// "./internal/..."). Empty means "./...".
	Patterns []string
}

// resolved is the policy derived from the module path.
type resolved struct {
	// timeType is the fully-qualified simulated-time type.
	timeType string
	// wallclockAllow are import-path prefixes where wall-clock reads are
	// legal.
	wallclockAllow []string
	// enginePkgs are import paths where `go` statements are forbidden
	// unconditionally (no allowlist applies).
	enginePkgs map[string]bool
	// concurrencyAllow are import-path prefixes where `go` statements are
	// legal outside the engine packages — the sanctioned concurrency sites.
	concurrencyAllow []string
	// unitAllow are import-path prefixes housing the audited float→time
	// conversion helpers.
	unitAllow []string
}

func resolve(module string) *resolved {
	r := &resolved{
		timeType:         module + "/internal/sim.Time",
		wallclockAllow:   []string{module + "/cmd", module + "/internal/trace"},
		enginePkgs:       map[string]bool{},
		concurrencyAllow: []string{module + "/internal/sweep", module + "/cmd"},
		unitAllow:        []string{module + "/internal/sim"},
	}
	for _, p := range []string{"sim", "gpu", "nvswitch", "noc", "machine"} {
		r.enginePkgs[module+"/internal/"+p] = true
	}
	return r
}

// pathAllowed reports whether an import path is covered by an allowlist
// prefix (exact package or any package below it).
func pathAllowed(path string, allow []string) bool {
	for _, a := range allow {
		if path == a || strings.HasPrefix(path, a+"/") {
			return true
		}
	}
	return false
}

// Run analyzes the requested packages and returns every diagnostic, sorted
// by file, line and column. A non-nil error means the analysis itself
// could not run (parse/type errors, bad patterns) — distinct from
// violations, which arrive as diagnostics with a nil error.
func Run(cfg Config) ([]Diagnostic, error) {
	l, err := newLoader(cfg.Dir)
	if err != nil {
		return nil, err
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	mod := newModState(l, resolve(l.module))

	var diags []Diagnostic
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		diags = append(diags, lintPackage(p, mod)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// reporter is the sink checks report into; suppression by directive
// happens here.
type reporter func(pos token.Pos, check, format string, args ...any)

func lintPackage(p *Package, mod *modState) []Diagnostic {
	fset := p.Fset
	var diags []Diagnostic
	dirsByFile := map[string]*directiveSet{}
	for _, f := range p.Files {
		ds, dirDiags := parseDirectives(fset, f)
		diags = append(diags, dirDiags...)
		dirsByFile[fset.Position(f.Pos()).Filename] = ds
	}
	rep := func(pos token.Pos, check, format string, args ...any) {
		position := fset.Position(pos)
		if ds := dirsByFile[position.Filename]; ds != nil && ds.suppressed(check, position.Line) {
			return
		}
		diags = append(diags, Diagnostic{
			File: position.Filename, Line: position.Line, Col: position.Column,
			Check: check, Msg: fmt.Sprintf(format, args...),
		})
	}
	pass := &Pass{Pkg: p, rc: mod.rc, mod: mod, rep: rep}
	for _, a := range registry {
		a.run(pass)
	}
	for _, name := range sortedKeys(dirsByFile) {
		diags = append(diags, dirsByFile[name].unused(fset)...)
	}
	return diags
}

// directive is one parsed //caislint:ignore comment. It covers its own
// line and the next.
type directive struct {
	check string
	line  int
	pos   token.Pos
	used  bool
}

type directiveSet struct {
	list []*directive
}

// parseDirectives extracts caislint directives from a file's comments.
// Malformed directives (unknown verb or check, missing reason) are
// diagnostics themselves: a suppression without a recorded reason is
// indistinguishable from a shrug.
func parseDirectives(fset *token.FileSet, f *ast.File) (*directiveSet, []Diagnostic) {
	ds := &directiveSet{}
	var diags []Diagnostic
	bad := func(pos token.Pos, format string, args ...any) {
		position := fset.Position(pos)
		diags = append(diags, Diagnostic{
			File: position.Filename, Line: position.Line, Col: position.Column,
			Check: CheckDirective, Msg: fmt.Sprintf(format, args...),
		})
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // block comments cannot carry directives
			}
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "caislint:")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			switch {
			case len(fields) == 0:
				bad(c.Pos(), "empty caislint directive")
			case fields[0] != "ignore":
				bad(c.Pos(), "unknown caislint directive %q (want ignore)", fields[0])
			case len(fields) < 2:
				bad(c.Pos(), "caislint:ignore needs a check name")
			case !knownChecks[fields[1]]:
				bad(c.Pos(), "caislint:ignore names unknown check %q", fields[1])
			case len(fields) < 3:
				bad(c.Pos(), "caislint:ignore %s is missing its mandatory reason", fields[1])
			default:
				ds.list = append(ds.list, &directive{check: fields[1], line: fset.Position(c.Pos()).Line, pos: c.Pos()})
			}
		}
	}
	return ds, diags
}

// suppressed reports whether a diagnostic for check at the given line is
// covered by a directive on that line or the line above.
func (ds *directiveSet) suppressed(check string, line int) bool {
	hit := false
	for _, d := range ds.list {
		if d.check == check && (line == d.line || line == d.line+1) {
			d.used = true
			hit = true
		}
	}
	return hit
}

// unused reports directives that suppressed nothing — stale annotations
// are themselves violations so the tree stays minimally annotated.
func (ds *directiveSet) unused(fset *token.FileSet) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds.list {
		if d.used {
			continue
		}
		position := fset.Position(d.pos)
		out = append(out, Diagnostic{
			File: position.Filename, Line: position.Line, Col: position.Column,
			Check: CheckDirective,
			Msg:   fmt.Sprintf("unused caislint:ignore directive for %s (nothing to suppress here)", d.check),
		})
	}
	return out
}
