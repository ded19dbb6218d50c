package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrCheck flags dropped errors. On a path, a dropped error is a dropped
// invariant — admission control, fbuf limits, and demux failures all report
// through error returns, and ignoring one turns a controlled degradation into
// silent corruption. Two rules, which never flag the same statement, share
// one walk over the package's call-graph nodes:
//
//   - in internal/ non-test code, a call used as a bare statement whose (last)
//     result is an error: discards must be explicit (`_ = f()`) so they are
//     visible in review and greppable;
//   - on a call chain a data-path root can reach, even an explicit discard is
//     a dropped path invariant unless the code says why: a blank-discarded
//     error must carry a justifying comment on its line or the line above
//     (the rule ServeIncoming already follows).
var ErrCheck = &Analyzer{
	Name:       "errcheck",
	Doc:        "no silently discarded errors in internal/; blank discards on data-path chains need a comment",
	NeedsTypes: true,
	Run:        runErrCheck,
}

// errCheckExempt lists callees whose errors are conventionally meaningless:
// best-effort terminal output, and the bytes/strings builders that are
// documented never to fail.
var errCheckExempt = map[string]bool{
	"fmt.Print":   true,
	"fmt.Printf":  true,
	"fmt.Println": true,
}

func errCheckExemptRecv(full string) bool {
	return strings.HasPrefix(full, "(*bytes.Buffer).") ||
		strings.HasPrefix(full, "(*strings.Builder).")
}

func runErrCheck(pass *Pass) {
	g := pass.Pkg.Mod.Graph()
	internal := pass.Pkg.Internal()
	for _, n := range g.NodesIn(pass.Pkg) {
		if !internal && !n.Reachable() {
			continue
		}
		n.inspectOwn(func(x ast.Node) bool {
			switch st := x.(type) {
			case *ast.ExprStmt:
				if internal {
					checkBareDrop(pass, st)
				}
			case *ast.AssignStmt:
				if n.Reachable() {
					checkBlankDrop(pass, g, n, st)
				}
			}
			return true
		})
	}
}

// checkBareDrop flags a call statement whose error result is discarded.
func checkBareDrop(pass *Pass, stmt *ast.ExprStmt) {
	info := pass.Pkg.Info
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok || !returnsError(info, call) {
		return
	}
	name := calleeName(info, call)
	if errCheckExempt[name] || errCheckExemptRecv(name) {
		return
	}
	if name == "" {
		name = "call"
	}
	pass.Reportf(call.Pos(), "%s returns an error that is silently discarded; handle it or assign it explicitly (_ = ...)", name)
}

// checkBlankDrop flags an assignment that blank-discards an error with no
// comment on its line or the line above.
func checkBlankDrop(pass *Pass, g *CallGraph, n *GraphNode, st *ast.AssignStmt) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		return
	}
	for i, lhs := range st.Lhs {
		if !blankIdent(lhs) || !discardsError(pass.Pkg.Info, st, i) {
			continue
		}
		if !commentNear(pass, st.Pos(), "") {
			pass.ReportfChain(st.Pos(), g.Chain(n),
				"error blank-discarded on a data-path call chain in %s; handle it, or justify the discard with a comment on this line", n.Name)
		}
		return
	}
}

// returnsError reports whether the call's result is an error or a tuple
// whose last element is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	var last types.Type
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() == 0 {
			return false
		}
		last = t.At(t.Len() - 1).Type()
	default:
		last = t
	}
	return isErrorType(last)
}

// discardsError reports whether position i of the assignment receives a
// value of (exactly) type error.
func discardsError(info *types.Info, st *ast.AssignStmt, i int) bool {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		tv, ok := info.Types[st.Rhs[0]]
		if !ok {
			return false
		}
		tuple, ok := tv.Type.(*types.Tuple)
		if !ok || i >= tuple.Len() {
			return false
		}
		return isErrorType(tuple.At(i).Type())
	}
	if i < len(st.Rhs) {
		if tv, ok := info.Types[st.Rhs[i]]; ok && tv.Type != nil {
			return isErrorType(tv.Type)
		}
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

// isErrorType matches results declared exactly as `error` (the convention
// this repo follows everywhere); concrete error implementations returned as
// themselves are rare and deliberate.
func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

// calleeName renders the called function for messages and the exemption
// table: "fmt.Println", "(*bytes.Buffer).WriteString", or a bare name.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok {
			if fn, ok := obj.(*types.Func); ok {
				return fn.FullName()
			}
		}
		return fun.Name
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel]; ok {
			if fn, ok := obj.(*types.Func); ok {
				return fn.FullName()
			}
		}
		return types.ExprString(fun)
	}
	return ""
}
