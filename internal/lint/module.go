package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// modState is the whole-module view shared by every package analyzed in
// one Run. The cross-package passes use it to reach beyond the package
// under analysis: exhaustive collects enum const blocks from their
// declaring package, and wallclock and rand walk callee bodies across the
// module's call graph. All lookups are lazy and memoized — a package's
// AST and type information load at most once per Run, shared with the
// per-package analysis itself through the loader.
type modState struct {
	l  *loader
	rc *resolved

	decls    map[string]map[*types.Func]*ast.FuncDecl // pkg path -> func object -> decl
	enums    map[*types.TypeName][]enumMember
	taints   map[*types.Func]taintFacts
	taintRun map[*types.Func]bool // DFS guard for call-graph cycles
}

func newModState(l *loader, rc *resolved) *modState {
	return &modState{
		l:        l,
		rc:       rc,
		decls:    map[string]map[*types.Func]*ast.FuncDecl{},
		enums:    map[*types.TypeName][]enumMember{},
		taints:   map[*types.Func]taintFacts{},
		taintRun: map[*types.Func]bool{},
	}
}

// inModule reports whether a types.Package belongs to the module under
// analysis (as opposed to the standard library).
func (m *modState) inModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == m.l.module || strings.HasPrefix(path, m.l.module+"/")
}

// pkgFor loads the module package a types.Package corresponds to,
// returning nil for non-module packages or load failures (the package
// already type-checked once to get here, so failures are theoretical).
func (m *modState) pkgFor(pkg *types.Package) *Package {
	if !m.inModule(pkg) {
		return nil
	}
	p, err := m.l.load(pkg.Path())
	if err != nil {
		return nil
	}
	return p
}

// declOf resolves a module function or method object to its declaration,
// building a per-package index on first use.
func (m *modState) declOf(fn *types.Func) (*ast.FuncDecl, *Package) {
	p := m.pkgFor(fn.Pkg())
	if p == nil {
		return nil, nil
	}
	idx, ok := m.decls[p.Path]
	if !ok {
		idx = map[*types.Func]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					idx[obj] = fd
				}
			}
		}
		m.decls[p.Path] = idx
	}
	return idx[fn], p
}
