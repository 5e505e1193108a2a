package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// checkExhaustive enforces enum coverage: a switch over an enum-like
// module type must cover every declared constant or carry an explicit
// default clause, and a map literal keyed by such a type must cover every
// constant outright (a map has no default). This catches the "added
// LinkDown handling everywhere except Fault.String" class of drift: a
// new enum member compiles fine while half the dispatch sites silently
// fall through.
//
// Enum-like means: a named type declared in this module whose underlying
// type is an integer or string basic type, with at least two package-
// level constants of exactly that type in its defining package
// (faults.Kind, faults.Dir, attrib.Bucket, attrib.Class, model.OpKind,
// the strategy enums, ...). Constants of a different declared type —
// like attrib.NumBuckets, which is an int — do not join the enum.
//
// Switches or literals mentioning any non-constant key are skipped: no
// coverage claim can be proven about them.
func checkExhaustive(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				exhaustiveSwitch(pass, n)
			case *ast.CompositeLit:
				exhaustiveMapLit(pass, n)
			}
			return true
		})
	}
}

// enumMember is one declared constant of an enum type.
type enumMember struct {
	name string
	val  string // exact constant value, the identity used for coverage
}

// enumMembers returns the enum members of a named type, or nil when the
// type does not qualify as enum-like. Memoized per Run.
func (m *modState) enumMembers(named *types.Named) []enumMember {
	obj := named.Obj()
	if !m.inModule(obj.Pkg()) {
		return nil
	}
	if cached, ok := m.enums[obj]; ok {
		return cached
	}
	members := []enumMember{}
	basic, ok := named.Underlying().(*types.Basic)
	if ok && basic.Info()&(types.IsInteger|types.IsString) != 0 {
		scope := obj.Pkg().Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok || !types.Identical(c.Type(), named) {
				continue
			}
			members = append(members, enumMember{name: name, val: c.Val().ExactString()})
		}
		sort.Slice(members, func(i, j int) bool {
			if members[i].val != members[j].val {
				return members[i].val < members[j].val
			}
			return members[i].name < members[j].name
		})
	}
	if len(members) < 2 {
		members = nil
	}
	m.enums[obj] = members
	return members
}

// enumOf classifies an expression's type, returning its named enum type
// and members when it qualifies.
func enumOf(pass *Pass, t types.Type) (*types.Named, []enumMember) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	members := pass.mod.enumMembers(named)
	if members == nil {
		return nil, nil
	}
	return named, members
}

// missingMembers returns the names of declared members whose values are
// absent from covered, collapsing aliases (two names with one value are
// covered together, reported once).
func missingMembers(members []enumMember, covered map[string]bool) []string {
	var missing []string
	seen := map[string]bool{}
	for _, mem := range members {
		if covered[mem.val] || seen[mem.val] {
			continue
		}
		seen[mem.val] = true
		missing = append(missing, mem.name)
	}
	return missing
}

// exhaustiveSwitch audits one value switch.
func exhaustiveSwitch(pass *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	named, members := enumOf(pass, pass.Pkg.Info.TypeOf(sw.Tag))
	if named == nil {
		return
	}
	covered := map[string]bool{}
	for _, clause := range sw.Body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			return // explicit default: the author handled the remainder
		}
		for _, e := range cc.List {
			tv, ok := pass.Pkg.Info.Types[e]
			if !ok || tv.Value == nil {
				return // non-constant case: coverage unprovable, skip
			}
			covered[tv.Value.ExactString()] = true
		}
	}
	if missing := missingMembers(members, covered); len(missing) > 0 {
		pass.rep(sw.Pos(), CheckExhaustive,
			"switch on %s is not exhaustive: missing %s (add the cases, a default clause, or //caislint:ignore exhaustive <reason>)",
			shortName(named), strings.Join(missing, ", "))
	}
}

// exhaustiveMapLit audits one map literal keyed by an enum type.
func exhaustiveMapLit(pass *Pass, lit *ast.CompositeLit) {
	t := pass.Pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	mt, ok := t.Underlying().(*types.Map)
	if !ok {
		return
	}
	named, members := enumOf(pass, mt.Key())
	if named == nil {
		return
	}
	covered := map[string]bool{}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return
		}
		tv, ok := pass.Pkg.Info.Types[kv.Key]
		if !ok || tv.Value == nil {
			return // computed key: coverage unprovable, skip
		}
		covered[tv.Value.ExactString()] = true
	}
	if missing := missingMembers(members, covered); len(missing) > 0 {
		pass.rep(lit.Pos(), CheckExhaustive,
			"map literal over %s is not exhaustive: missing %s (cover every constant or add //caislint:ignore exhaustive <reason>)",
			shortName(named), strings.Join(missing, ", "))
	}
}

// shortName renders a type as pkgname.Type for diagnostics.
func shortName(t *types.Named) string {
	return types.TypeString(t, func(pkg *types.Package) string { return pkg.Name() })
}
