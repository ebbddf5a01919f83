package lint

import (
	"go/ast"
	"go/types"
)

// taint is the local taint engine shared by secretflow and
// obsdiscipline's label-cardinality check. Per function body it runs
// assignments (and range bindings) to a fixpoint, so taint follows
// chains like sk := kg.GenSecretKey(); q := sk.Q; raw := q.Coeffs —
// closure bodies included — and then hands every call in the body to
// the analyzer's sink check, which asks taintedExpr about the operands.
//
// Taint is structural: it flows through selections, indexing, slicing,
// dereference, unary and binary operators, type assertions, composite
// literals and conversions. It stops at calls, whose results are fresh
// values, unless the analyzer's call hook names the call a source or
// lists the operands its result carries.
type taint struct {
	info *types.Info
	// source reports whether e is tainted by itself, whatever its parts:
	// a secret-bearing type, a seed variable, a request's URL path.
	source func(e ast.Expr) bool
	// call, when set, classifies a call that is not a conversion: source
	// marks a result tainted outright, through lists the operands whose
	// taint the result carries. (false, nil) cuts the flow.
	call func(call *ast.CallExpr) (source bool, through []ast.Expr)

	tainted map[types.Object]bool
}

// check analyzes one function body and passes each call in it to sink.
func (t *taint) check(body *ast.BlockStmt, sink func(call *ast.CallExpr)) {
	t.tainted = map[types.Object]bool{}
	t.propagate(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			sink(call)
		}
		return true
	})
}

// propagate runs local bindings to a fixpoint.
func (t *taint) propagate(body *ast.BlockStmt) {
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						grew = t.bind(n.Lhs[i], n.Rhs[i]) || grew
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						grew = t.bind(n.Names[i], n.Values[i]) || grew
					}
				}
			case *ast.RangeStmt:
				// for k, v := range tainted: key and element are tainted.
				if n.Value != nil {
					grew = t.bind(n.Value, n.X) || grew
				}
				if n.Key != nil {
					grew = t.bind(n.Key, n.X) || grew
				}
			}
			return true
		})
		if !grew {
			return
		}
	}
}

// bind taints the identifier lhs when rhs is tainted, reporting whether
// the tainted set grew.
func (t *taint) bind(lhs, rhs ast.Expr) bool {
	if !t.taintedExpr(rhs) {
		return false
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := t.info.ObjectOf(id)
	if obj == nil || t.tainted[obj] {
		return false
	}
	t.tainted[obj] = true
	return true
}

// taintedExpr reports whether e carries taint.
func (t *taint) taintedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	if e == nil {
		return false
	}
	if t.source(e) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := t.info.ObjectOf(e); obj != nil {
			return t.tainted[obj]
		}
	case *ast.SelectorExpr:
		return t.taintedExpr(e.X)
	case *ast.IndexExpr:
		return t.taintedExpr(e.X)
	case *ast.SliceExpr:
		return t.taintedExpr(e.X)
	case *ast.StarExpr:
		return t.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return t.taintedExpr(e.X)
	case *ast.BinaryExpr:
		// Seed mixing (seed ^ salt) and concatenation stay tainted on
		// either side.
		return t.taintedExpr(e.X) || t.taintedExpr(e.Y)
	case *ast.TypeAssertExpr:
		return t.taintedExpr(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if t.taintedExpr(elt) {
				return true
			}
		}
	case *ast.CallExpr:
		// Conversions propagate ([]byte(raw), string(b)).
		if tv, ok := t.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return t.taintedExpr(e.Args[0])
		}
		if t.call == nil {
			return false
		}
		source, through := t.call(e)
		if source {
			return true
		}
		for _, x := range through {
			if t.taintedExpr(x) {
				return true
			}
		}
	}
	return false
}
