package lint

import (
	"go/ast"
	"go/token"
	"maps"
)

// The forward statement walker shared by the flow-sensitive analyzers:
// the pairing engine (polypool, refbalance, obsdiscipline's lifecycles),
// lockguard and lockorder.
//
// It interprets one function body over an analyzer's state — a lattice
// of per-key facts that can be cloned for a branch and joined back at a
// merge — and owns all control flow: blocks, if/else, for and range
// loops (one iteration on a copy, joined back: the body may run zero or
// more times), switch, type switch and select (every clause runs on a
// copy of the incoming state; the clauses that fall out join, together
// with the fall-past path of a switch without a default), labeled
// statements, and the path-ending return, break, continue and goto (a
// path that ends leaves the join, except that a break out of a switch or
// select joins after it). A statement ends every path through it when
// Go's spec calls it terminating: an if/else whose arms both end, a for
// without a condition, and a switch with a default or a select whose
// clauses all end, where the loop or clauses reach no break.
// Everything else is a leaf the analyzer interprets through its hooks.

// lattice is an analysis state: a map from resource keys to facts, with
// a copy for a branch and an in-place join at a merge.
type lattice[S any, V any] interface {
	~map[string]V
	clone() S
	join(other S)
}

// flow is the walker configured for one analysis.
type flow[S lattice[S, V], V any] struct {
	// leaf interprets a statement without control flow of its own
	// (assignment, declaration, expression, defer, go, send, inc/dec)
	// and reports whether it ends the path.
	leaf func(s ast.Stmt, st S) (terminated bool)
	// expr evaluates an expression for its effects: if and for
	// conditions, switch tags, case lists, range operands and returned
	// values.
	expr func(e ast.Expr, st S)
	// exit, when set, checks the state where the function is left: at a
	// return (with its results) or at the end of the body.
	exit func(st S, pos token.Pos, results []ast.Expr)
	// loopEnd, when set, checks the state at the end of one loop
	// iteration against the state the loop was entered with.
	loopEnd func(pre, post S, body *ast.BlockStmt)

	// breaks holds one entry per loop, switch or select being walked:
	// the states at the unlabeled breaks that leave it.
	breaks [][]S
	// labeledBreaks counts the labeled breaks walked so far. A statement
	// that saw one may be left by it.
	labeledBreaks int
}

// run walks a function body starting from st.
func (f *flow[S, V]) run(body *ast.BlockStmt, st S) {
	if !f.stmts(body.List, st) && f.exit != nil {
		f.exit(st, body.End(), nil)
	}
}

// stmts walks a statement list, reporting whether every path through it
// ends.
func (f *flow[S, V]) stmts(list []ast.Stmt, st S) bool {
	for _, s := range list {
		if f.stmt(s, st) {
			return true
		}
	}
	return false
}

func (f *flow[S, V]) stmt(s ast.Stmt, st S) (terminated bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return f.stmts(s.List, st)

	case *ast.LabeledStmt:
		return f.stmt(s.Stmt, st)

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			f.expr(r, st)
		}
		if f.exit != nil {
			f.exit(st, s.Pos(), s.Results)
		}
		return true

	case *ast.BranchStmt:
		// break/continue/goto end the path here. An unlabeled break
		// hands its state to the statement it leaves.
		if s.Tok == token.BREAK {
			if s.Label != nil {
				f.labeledBreaks++
			} else if n := len(f.breaks); n > 0 {
				f.breaks[n-1] = append(f.breaks[n-1], st.clone())
			}
		}
		return true

	case *ast.IfStmt:
		f.init(s.Init, st)
		f.expr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := f.stmt(s.Body, thenSt)
		if s.Else == nil {
			if !thenTerm {
				st.join(thenSt)
			}
			return false
		}
		elseSt := st.clone()
		elseTerm := f.stmt(s.Else, elseSt)
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(st, elseSt)
		case elseTerm:
			replace(st, thenSt)
		default:
			replace(st, thenSt)
			st.join(elseSt)
		}

	case *ast.ForStmt:
		f.init(s.Init, st)
		if s.Cond != nil {
			f.expr(s.Cond, st)
		}
		broken := f.loop(s.Body, s.Post, st)
		return s.Cond == nil && !broken

	case *ast.RangeStmt:
		f.expr(s.X, st)
		f.loop(s.Body, nil, st)

	case *ast.SwitchStmt:
		f.init(s.Init, st)
		if s.Tag != nil {
			f.expr(s.Tag, st)
		}
		return f.cases(s.Body, st, false)

	case *ast.TypeSwitchStmt:
		f.init(s.Init, st)
		return f.cases(s.Body, st, false)

	case *ast.SelectStmt:
		// A select without a default blocks until one clause runs.
		return f.cases(s.Body, st, true)

	default:
		return f.leaf(s, st)
	}
	return false
}

// init walks an if, for or switch init statement, if any.
func (f *flow[S, V]) init(s ast.Stmt, st S) {
	if s != nil {
		f.stmt(s, st)
	}
}

// loop walks one iteration (body, then post statement) on a copy of st
// and joins it back unless the body always leaves the loop. It reports
// whether a break may leave the loop; the paths that do are not
// tracked further, like those that continue.
func (f *flow[S, V]) loop(body *ast.BlockStmt, post ast.Stmt, st S) (broken bool) {
	f.breaks = append(f.breaks, nil)
	labeled := f.labeledBreaks
	bodySt := st.clone()
	terminated := f.stmt(body, bodySt)
	breaks := f.popBreaks()
	if post != nil {
		f.stmt(post, bodySt)
	}
	if f.loopEnd != nil {
		f.loopEnd(st, bodySt, body)
	}
	if !terminated {
		st.join(bodySt)
	}
	return len(breaks) > 0 || f.labeledBreaks > labeled
}

// cases walks a switch, type-switch or select body and reports whether
// every path through it ends. Case expressions are evaluated on the
// incoming state; each clause runs on its own copy, and its state joins
// the outgoing one when it falls out or breaks. exhaustive says some
// clause always runs; a switch is exhaustive when it has a default.
func (f *flow[S, V]) cases(body *ast.BlockStmt, st S, exhaustive bool) bool {
	var out []S
	f.breaks = append(f.breaks, nil)
	labeled := f.labeledBreaks
	for _, c := range body.List {
		var comm ast.Stmt
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			exhaustive = exhaustive || c.List == nil
			for _, e := range c.List {
				f.expr(e, st)
			}
			stmts = c.Body
		case *ast.CommClause:
			comm, stmts = c.Comm, c.Body
		}
		caseSt := st.clone()
		if comm != nil {
			f.stmt(comm, caseSt)
		}
		if !f.stmts(stmts, caseSt) {
			out = append(out, caseSt)
		}
	}
	out = append(out, f.popBreaks()...)
	if len(out) == 0 {
		// Every clause ended its path. Without a default the no-match
		// path still falls past with st unchanged; with one, code after
		// the statement is unreachable unless a labeled break leaves it.
		return exhaustive && f.labeledBreaks == labeled
	}
	for _, o := range out[1:] {
		out[0].join(o)
	}
	if !exhaustive {
		out[0].join(st)
	}
	replace(st, out[0])
	return false
}

// popBreaks ends the innermost breakable statement, returning the
// states at its unlabeled breaks.
func (f *flow[S, V]) popBreaks() []S {
	n := len(f.breaks) - 1
	out := f.breaks[n]
	f.breaks[n] = nil
	f.breaks = f.breaks[:n]
	return out
}

// replace overwrites dst's contents with src's.
func replace[S ~map[string]V, V any](dst, src S) {
	clear(dst)
	maps.Copy(dst, src)
}
