package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkMapOrder flags `for range` loops over maps. Go randomizes map
// iteration order per run, so a loop whose effect depends on that order
// makes the simulator non-reproducible. The one body accepted without
// annotation is the collection step of the sorted-keys idiom, gathering
// the range key and nothing else:
//
//	for k := range m {
//		keys = append(keys, k)
//	}
//
// Every other map range must iterate sorted keys instead or carry a
// //caislint:ignore map-order <reason> directive.
func checkMapOrder(p *Package, f *ast.File, _ *resolved, rep reporter) {
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); isMap && !collectsKeys(p, rs) {
			rep(rs.For, CheckMapOrder,
				"range over map %s does more than collect its keys (keys = append(keys, k)); iterate sorted keys or add //caislint:ignore map-order <reason>",
				types.ExprString(rs.X))
		}
		return true
	})
}

// collectsKeys reports whether a map range binds only its key and its
// whole body is `s = append(s, k)` with k that key.
func collectsKeys(p *Package, rs *ast.RangeStmt) bool {
	key := loopIdent(rs.Key)
	if key == nil || loopIdent(rs.Value) != nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, builtin := p.Info.Uses[fn].(*types.Builtin); !builtin {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name && types.ExprString(call.Args[0]) == types.ExprString(as.Lhs[0])
}

func loopIdent(e ast.Expr) *ast.Ident {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return id
}
