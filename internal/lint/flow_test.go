package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"
)

// heldNames is a toy lattice for exercising the flow walker: the set of
// names acquired and not yet released, with union joins.
type heldNames map[string]bool

func (h heldNames) clone() heldNames { return maps.Clone(h) }

func (h heldNames) join(other heldNames) { maps.Copy(h, other) }

// TestFlowWalker drives the walker over small bodies whose leaves are
// acq("a") / rel("a") calls and records the held set at every exit and
// every loop-iteration end.
func TestFlowWalker(t *testing.T) {
	cases := []struct {
		name, body string
		want       []string
	}{
		{"straight line", `acq("a"); acq("b"); rel("a")`, []string{"exit: b"}},
		{"if without else joins", `acq("a"); if x > 0 { rel("a"); acq("b") }`, []string{"exit: a,b"}},
		{"if/else both release", `acq("a"); if x > 0 { rel("a") } else { rel("a") }`, []string{"exit: "}},
		{"then arm returns: else state replaces", `acq("a"); if x > 0 { return } else { rel("a") }; acq("b")`,
			[]string{"return: a", "exit: b"}},
		{"else arm returns: then state replaces", `acq("a"); if x > 0 { rel("a") } else { return }`,
			[]string{"return: a", "exit: "}},
		{"both arms return: code after is dead", `if x > 0 { return } else { acq("a"); return }; acq("b")`,
			[]string{"return: ", "return: a"}},
		{"switch with default releasing everywhere", `acq("a"); switch x { case 1: rel("a"); default: rel("a") }`,
			[]string{"exit: "}},
		{"switch without default falls past", `acq("a"); switch x { case 1: rel("a"); case 2: rel("a") }`,
			[]string{"exit: a"}},
		{"switch clause that returns leaves the join", `acq("a"); switch x { case 1: return; default: rel("a") }`,
			[]string{"return: a", "exit: "}},
		{"switch with default whose clauses all return", `acq("a"); switch x { case 1: rel("a"); return; default: rel("a"); return }; acq("b")`,
			[]string{"return: ", "return: "}},
		{"switch without default whose clauses all return", `acq("a"); switch x { case 1: return; case 2: return }`,
			[]string{"return: a", "return: a", "exit: a"}},
		{"switch whose clauses end but one breaks", `acq("a"); switch x { case 1: rel("a"); break; default: return }; acq("b")`,
			[]string{"return: a", "exit: b"}},
		{"break joins the state it leaves a switch with", `switch x { case 1: acq("a"); break; acq("b"); default: }`,
			[]string{"exit: a"}},
		{"labeled break out of a switch leaves its loop", `L: for { switch x { case 1: break L; default: return } }; acq("b")`,
			[]string{"return: ", "loop end: ", "exit: b"}},
		{"select with default", `acq("a"); select { case <-ch: rel("a"); default: rel("a") }`,
			[]string{"exit: "}},
		{"select without default runs a clause", `acq("a"); select { case <-ch: rel("a") }`,
			[]string{"exit: "}},
		{"select whose clauses all return", `acq("a"); select { case <-ch: rel("a"); return }; acq("b")`,
			[]string{"return: "}},
		{"comm statement runs in its clause", `select { case ch <- acq("a"): ; default: }`,
			[]string{"exit: a"}},
		{"type switch with default", `acq("a"); switch any(x).(type) { case int: rel("a"); default: rel("a") }`,
			[]string{"exit: "}},
		{"loop body joins back and reports its end", `for i := 0; i < x; i++ { acq("a") }`,
			[]string{"loop end: a", "exit: a"}},
		{"loop post runs on the body state", `for i := 0; i < x; rel("a") { acq("a") }`,
			[]string{"loop end: ", "exit: "}},
		{"range loop", `for range ch { acq("a"); break }`,
			[]string{"loop end: a", "exit: "}},
		{"break, continue and goto end the path", `for x > 0 { acq("a"); continue }; for x > 0 { acq("b"); goto L }; L: acq("c")`,
			[]string{"loop end: a", "loop end: b", "exit: c"}},
		{"labeled statement", `L: for { acq("a"); break L }`,
			[]string{"loop end: a", "exit: "}},
		{"for without condition or break never falls out", `for { acq("a"); if x > 0 { return } }; acq("b")`,
			[]string{"return: a", "loop end: a"}},
		{"for without condition but with a break falls out", `for { if x > 0 { break } }; acq("b")`,
			[]string{"loop end: ", "exit: b"}},
		{"break in a select leaves the select, not the loop", `for { select { case <-ch: acq("a"); break } }; acq("b")`,
			[]string{"loop end: a"}},
		{"conditions and tags are evaluated", `if acq("a") { }; switch acq("b") { case acq("c"): }`,
			[]string{"exit: a,b,c"}},
		{"return values are evaluated before the exit", `return acq("a")`, []string{"return: a"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := walkToy(t, tc.body); !slices.Equal(got, tc.want) {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
}

// walkToy parses src as a function body and runs the walker over it.
func walkToy(t *testing.T, src string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "toy.go", "package p\nfunc f() {\n"+src+"\n}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Decls[0].(*ast.FuncDecl).Body
	var events []string
	record := func(what string, st heldNames) {
		var names []string
		for name := range st {
			names = append(names, name)
		}
		sort.Strings(names)
		events = append(events, what+": "+strings.Join(names, ","))
	}
	expr := func(e ast.Expr, st heldNames) {
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			fun, _ := call.Fun.(*ast.Ident)
			arg, _ := call.Args[0].(*ast.BasicLit)
			if fun == nil || arg == nil {
				return true
			}
			switch name := strings.Trim(arg.Value, `"`); fun.Name {
			case "acq":
				st[name] = true
			case "rel":
				delete(st, name)
			}
			return false
		})
	}
	fl := &flow[heldNames, bool]{
		leaf: func(s ast.Stmt, st heldNames) bool {
			switch s := s.(type) {
			case *ast.ExprStmt:
				expr(s.X, st)
			case *ast.SendStmt:
				expr(s.Value, st)
			}
			return false
		},
		expr: expr,
		exit: func(st heldNames, pos token.Pos, _ []ast.Expr) {
			if pos == body.End() {
				record("exit", st)
				return
			}
			record("return", st)
		},
		loopEnd: func(_, post heldNames, _ *ast.BlockStmt) { record("loop end", post) },
	}
	fl.run(body, heldNames{})
	return events
}
