package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// Secretflow is a taint analysis, on the shared taint engine (taint.go),
// that proves key material never leaves the process. Sources are values of the secret-bearing types —
// SecretKey, KeyGenerator, Sampler (matched by type name, like the rest
// of the suite, so fixtures stay self-contained) — plus integer
// variables with seed-like names inside the crypto packages (ckks,
// ring), where a seed fully determines the secret key. Taint propagates
// through selections, indexing, dereference, composite literals,
// conversions, arithmetic (seed mixing) and local assignment chains; it
// deliberately stops at every call boundary, so a Decryptor's
// *output* — which callers legitimately print — is not tainted by the
// secret key the Decryptor holds.
//
// Sinks are the ways bytes leave the process or land somewhere
// inspectable: fmt/log/slog formatting, MarshalBinary-family methods,
// encoding/json//gob/binary serialization, writes to an
// http.ResponseWriter, telemetry span attributes (Span.SetAttr,
// Trace.AddSpan — traces are served back at /v1/traces) and metric
// label values (CounterVec/HistogramVec With and Find — labels are
// rendered at /metrics). A sink call reached by a tainted value is
// reported unless the line (or the line above it) carries
// //hennlint:secret-sink-ok, the audited escape hatch.
var Secretflow = &Analyzer{
	Name: "secretflow",
	Doc:  "secret key material must never reach serialization, logging or network sinks",
	Run:  runSecretflow,
}

// secretTypeNames are the named types whose values are secret material
// wherever they appear.
var secretTypeNames = map[string]bool{
	"SecretKey":    true,
	"KeyGenerator": true,
	"Sampler":      true,
}

// marshalSinkMethods serialize their receiver.
var marshalSinkMethods = map[string]bool{
	"MarshalBinary": true,
	"MarshalText":   true,
	"MarshalJSON":   true,
	"AppendBinary":  true,
	"GobEncode":     true,
}

func runSecretflow(p *Pass) error {
	seedScoped := false
	switch path.Base(p.Path) {
	case "ckks", "ring":
		seedScoped = true
	}
	s := &secretflowPass{p: p, t: &taint{info: p.Info, source: func(e ast.Expr) bool {
		return secretSource(p.Info, seedScoped, e)
	}}}
	for _, f := range p.Files {
		s.okLines = directiveLines(p.Fset, f, "secret-sink-ok")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasDirective(fd.Doc, "secret-sink-ok") {
				continue
			}
			s.t.check(fd.Body, s.checkSinkCall)
		}
	}
	return nil
}

type secretflowPass struct {
	p       *Pass
	t       *taint
	okLines map[int]bool
}

// secretSource reports whether e is secret by itself: a value of a
// secret-bearing type or, inside the crypto packages, a seed-named
// integer variable.
func secretSource(info *types.Info, seedScoped bool, e ast.Expr) bool {
	if secretType(info.TypeOf(e)) {
		return true
	}
	id, ok := e.(*ast.Ident)
	if !ok || !seedScoped || !seedName(id.Name) {
		return false
	}
	v, ok := info.ObjectOf(id).(*types.Var)
	return ok && isIntegerVar(v)
}

// secretType reports whether t is (or wraps, through pointers, slices,
// arrays and maps) one of the secret-bearing named types.
func secretType(t types.Type) bool {
	for i := 0; i < 8 && t != nil; i++ {
		if secretTypeNames[namedTypeName(t)] {
			return true
		}
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			t = u.Underlying()
		default:
			return false
		}
	}
	return false
}

func seedName(name string) bool {
	return name == "seed" || strings.HasSuffix(name, "Seed") || strings.HasSuffix(name, "seed")
}

func isIntegerVar(v *types.Var) bool {
	b, ok := v.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func (s *secretflowPass) checkSinkCall(call *ast.CallExpr) {
	fn := calleeFunc(s.p.Info, call)
	if fn == nil {
		return
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)

	switch pkgPath {
	case "fmt", "log", "log/slog":
		// Every formatting/printing argument is a sink; %p-style
		// laundering is still a leak of pointer identity, so no verb
		// analysis — any tainted argument reports.
		for _, arg := range call.Args {
			s.reportIfTainted(call, arg, pkgPath+"."+fn.Name())
		}
		return
	case "encoding/json", "encoding/gob", "encoding/binary", "encoding/base64", "encoding/hex":
		for _, arg := range call.Args {
			s.reportIfTainted(call, arg, pkgPath+"."+fn.Name())
		}
		return
	}

	if sig != nil && sig.Recv() != nil {
		selExpr, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		// sk.MarshalBinary() and friends serialize their receiver.
		if marshalSinkMethods[fn.Name()] && s.t.taintedExpr(selExpr.X) {
			s.report(call, types.ExprString(selExpr.X), fn.Name())
			return
		}
		// enc.Encode(sk) on a gob/json encoder.
		if fn.Name() == "Encode" && namedTypeName(sig.Recv().Type()) == "Encoder" {
			for _, arg := range call.Args {
				s.reportIfTainted(call, arg, "Encoder.Encode")
			}
			return
		}
		// w.Write(raw) / io.WriteString-style writes on a network
		// response writer.
		if (fn.Name() == "Write" || fn.Name() == "WriteString") && namedTypeName(sig.Recv().Type()) == "ResponseWriter" {
			for _, arg := range call.Args {
				s.reportIfTainted(call, arg, "ResponseWriter."+fn.Name())
			}
			return
		}
		// Telemetry attributes land in trace snapshots served at
		// /v1/traces, and metric label values render at /metrics — both
		// inspectable over the network.
		recv := namedTypeName(sig.Recv().Type())
		spanSink := (fn.Name() == "SetAttr" && recv == "Span") ||
			(fn.Name() == "AddSpan" && recv == "Trace")
		labelSink := (fn.Name() == "With" || fn.Name() == "Find") &&
			(recv == "CounterVec" || recv == "HistogramVec")
		if spanSink || labelSink {
			for _, arg := range call.Args {
				s.reportIfTainted(call, arg, recv+"."+fn.Name())
			}
			return
		}
	}
}

func (s *secretflowPass) reportIfTainted(call *ast.CallExpr, arg ast.Expr, sink string) {
	if s.t.taintedExpr(arg) {
		s.report(call, types.ExprString(arg), sink)
	}
}

func (s *secretflowPass) report(call *ast.CallExpr, what, sink string) {
	if s.okLines[s.p.Fset.Position(call.Pos()).Line] {
		return
	}
	s.p.Reportf(call.Pos(), "secret material %s reaches sink %s; key material must never leave the process (audit with %ssecret-sink-ok if intended)",
		what, sink, directivePrefix)
}
