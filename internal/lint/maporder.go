package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"nocpu/internal/lint/analysis"
)

// Maporder flags `range` over a map whose body has side effects beyond
// pure accumulation. Go randomizes map iteration order per run, so any
// observable action performed inside such a loop — emitting a trace
// line, scheduling a simulation event, sending a message, writing
// output — happens in a different order every run and silently breaks
// the golden-hash determinism tests.
//
// Pure accumulation is allowed without a sort: appending to a slice
// (for a later sort), folding into a scalar (sums, max), writing or
// deleting map entries, and order-independent early returns. Anything
// that calls a non-builtin function is treated as a side effect; the
// sanctioned pattern is to collect the keys, sort them, and loop over the
// sorted slice.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag side effects performed in map iteration order",
	Run:  runMaporder,
}

func runMaporder(pass *analysis.Pass) error {
	if !simScoped(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if offender, what := firstSideEffect(pass, rs.Body); offender != nil {
				pass.Reportf(offender.Pos(),
					"%s inside range over map %s runs in map iteration order, which differs between runs; iterate sorted keys instead, or annotate //lint:allow maporder <reason>",
					what, exprString(pass.Fset, rs.X))
			}
			// The body was fully judged above; don't re-enter nested
			// ranges for a second report on the same offender.
			return false
		})
	}
	return nil
}

// firstSideEffect returns the first statement or expression in the loop
// body whose effect would be observed in iteration order, with a short
// description, or (nil, "") if the body is pure accumulation.
func firstSideEffect(pass *analysis.Pass, stmt ast.Stmt) (ast.Node, string) {
	switch s := stmt.(type) {
	case nil, *ast.EmptyStmt, *ast.BranchStmt:
		return nil, ""
	case *ast.LabeledStmt:
		return firstSideEffect(pass, s.Stmt)
	case *ast.BlockStmt:
		for _, st := range s.List {
			if n, what := firstSideEffect(pass, st); n != nil {
				return n, what
			}
		}
		return nil, ""
	case *ast.AssignStmt:
		return firstCall(pass, append(append([]ast.Expr{}, s.Lhs...), s.Rhs...)...)
	case *ast.IncDecStmt:
		return firstCall(pass, s.X)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return s, "declaration"
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				if n, what := firstCall(pass, vs.Values...); n != nil {
					return n, what
				}
			}
		}
		return nil, ""
	case *ast.IfStmt:
		if n, what := firstSideEffect(pass, s.Init); n != nil {
			return n, what
		}
		if n, what := firstCall(pass, s.Cond); n != nil {
			return n, what
		}
		if n, what := firstSideEffect(pass, s.Body); n != nil {
			return n, what
		}
		return firstSideEffect(pass, s.Else)
	case *ast.SwitchStmt:
		if n, what := firstSideEffect(pass, s.Init); n != nil {
			return n, what
		}
		if s.Tag != nil {
			if n, what := firstCall(pass, s.Tag); n != nil {
				return n, what
			}
		}
		return firstSideEffect(pass, s.Body)
	case *ast.TypeSwitchStmt:
		if n, what := firstSideEffect(pass, s.Init); n != nil {
			return n, what
		}
		return firstSideEffect(pass, s.Body)
	case *ast.CaseClause:
		if n, what := firstCall(pass, s.List...); n != nil {
			return n, what
		}
		for _, st := range s.Body {
			if n, what := firstSideEffect(pass, st); n != nil {
				return n, what
			}
		}
		return nil, ""
	case *ast.ForStmt:
		if n, what := firstSideEffect(pass, s.Init); n != nil {
			return n, what
		}
		if s.Cond != nil {
			if n, what := firstCall(pass, s.Cond); n != nil {
				return n, what
			}
		}
		if n, what := firstSideEffect(pass, s.Post); n != nil {
			return n, what
		}
		return firstSideEffect(pass, s.Body)
	case *ast.RangeStmt:
		if n, what := firstCall(pass, s.X); n != nil {
			return n, what
		}
		return firstSideEffect(pass, s.Body)
	case *ast.ReturnStmt:
		return firstCall(pass, s.Results...)
	case *ast.ExprStmt:
		return firstCall(pass, s.X)
	case *ast.GoStmt:
		return s, "starting a goroutine"
	case *ast.DeferStmt:
		return s, "defer"
	case *ast.SendStmt:
		return s, "channel send"
	default:
		return stmt, "statement"
	}
}

// accumBuiltins are the builtin functions considered pure accumulation.
// Notably absent: panic/print/println (observable output order), close
// and channel operations.
var accumBuiltins = map[string]bool{
	"append": true, "cap": true, "copy": true, "delete": true,
	"len": true, "make": true, "max": true, "min": true, "new": true,
}

// firstCall scans expressions for the first call that is neither a type
// conversion nor an accumulation builtin.
func firstCall(pass *analysis.Pass, exprs ...ast.Expr) (ast.Node, string) {
	var found ast.Node
	var what string
	for _, e := range exprs {
		if e == nil || found != nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			if id, ok := unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && accumBuiltins[b.Name()] {
					return true // pure accumulation builtin; keep scanning args
				}
			}
			found, what = call, "call to "+exprString(pass.Fset, call.Fun)
			return false
		})
	}
	return found, what
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// exprString renders a (small) expression for a diagnostic.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b bytes.Buffer
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "expression"
	}
	return b.String()
}
