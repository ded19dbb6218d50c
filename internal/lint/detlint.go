package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// DetLint enforces deterministic map iteration interprocedurally: the
// sharded parallel simulation kernel (ROADMAP item 1) can only promise
// same-seed byte-identical output if no map-iteration order can leak into
// simulation results or exported artifacts through *any* call chain (the
// wall clock and global rand are simclock's). Two scopes are checked:
//
//   - data-path scope: every function reachable from the data-path call
//     graph roots (Deliver chains, thread bodies, interrupt handlers). A
//     `range` over a map there processes work in a different order each run.
//
//   - export scope: packages that serialize results (they import
//     encoding/json). Iterating a map while building a report reorders the
//     artifact run to run, which breaks the byte-identical digests of
//     `make gates` and E10's trace and metrics exports.
//
// A map range is accepted when its body is provably order-insensitive:
// commutative integer accumulation, per-key writes into another map, and
// per-iteration locals — the shapes that cannot observe iteration order. The
// collect-then-sort idiom (append keys to a slice, sort it after the loop)
// is also accepted. Anything else must iterate a sorted key slice.
var DetLint = &Analyzer{
	Name:       "detlint",
	Doc:        "no order-nondeterministic map iteration on data-path or export call chains",
	NeedsTypes: true,
	Run:        runDetLint,
}

func runDetLint(pass *Pass) {
	g := pass.Pkg.Mod.Graph()
	export := detExportScope(pass.Pkg)
	for _, n := range g.NodesIn(pass.Pkg) {
		onPath := n.Reachable()
		if !onPath && !export {
			continue
		}
		info := pass.Pkg.Info
		n.inspectOwn(func(x ast.Node) bool {
			if rs, ok := x.(*ast.RangeStmt); ok {
				if isMapType(info, rs.X) && !orderInsensitiveRange(info, rs) && !collectThenSorted(info, n, rs) {
					scope := "export"
					if onPath {
						scope = "data-path"
					}
					pass.ReportfChain(rs.Pos(), g.Chain(n),
						"map iteration over %s in %s code is order-nondeterministic; range a sorted key slice (or keep the body order-insensitive)",
						types.ExprString(rs.X), scope)
				}
			}
			return true
		})
	}
}

func detExportScope(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "encoding/json" {
				return true
			}
		}
	}
	return false
}

func isMapType(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// orderInsensitiveRange reports whether the loop body cannot observe the
// map's iteration order. Allowed statement shapes:
//
//   - per-iteration locals (`:=`, var decls) with pure right-hand sides;
//   - commutative integer accumulation (`+=`, `-=`, `|=`, `&=`, `^=`, `*=`,
//     `++`, `--`) — float accumulation is rejected because float addition is
//     not associative, so the summed bytes would still differ run to run;
//   - writes into a map indexed by an iteration-scoped key (`out[k] = v`,
//     `delete(out, k)`) — per-key last-writer-wins is order-free when every
//     iteration writes its own key;
//   - if/switch/nested slice loops over the above, with pure conditions.
//
// Pure here means free of calls except len/cap/min/max and conversions.
// Everything else (appends, plain assignments to accumulators, function
// calls, early exits) is order-sensitive and rejected.
func orderInsensitiveRange(info *types.Info, rs *ast.RangeStmt) bool {
	iterScoped := map[types.Object]bool{}
	noteDef := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj, ok := info.Defs[id]; ok {
				iterScoped[obj] = true
			}
		}
	}
	noteDef(rs.Key)
	noteDef(rs.Value)
	ast.Inspect(rs.Body, func(x ast.Node) bool {
		switch st := x.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				for _, lhs := range st.Lhs {
					noteDef(lhs)
				}
			}
		case *ast.ValueSpec:
			for _, name := range st.Names {
				noteDef(name)
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return orderFreeStmts(info, iterScoped, rs.Body.List)
}

func orderFreeStmts(info *types.Info, scoped map[types.Object]bool, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !orderFreeStmt(info, scoped, s) {
			return false
		}
	}
	return true
}

func orderFreeStmt(info *types.Info, scoped map[types.Object]bool, s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		switch st.Tok {
		case token.DEFINE:
			return pureExprs(info, st.Rhs)
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
			token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
			for _, lhs := range st.Lhs {
				if !integerExpr(info, lhs) {
					return false
				}
			}
			return pureExprs(info, st.Rhs)
		case token.ASSIGN:
			for _, lhs := range st.Lhs {
				if !blankIdent(lhs) && !mapWritePerKey(info, scoped, lhs) {
					return false
				}
			}
			return pureExprs(info, st.Rhs)
		}
		return false
	case *ast.IncDecStmt:
		return integerExpr(info, st.X)
	case *ast.ExprStmt:
		// delete(out, k) with an iteration-scoped key.
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "delete" || len(call.Args) != 2 {
			return false
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return false
		}
		return usesScoped(info, scoped, call.Args[1]) && pureExprs(info, call.Args)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok && !pureExprs(info, vs.Values) {
				return false
			}
		}
		return true
	case *ast.IfStmt:
		if st.Init != nil && !orderFreeStmt(info, scoped, st.Init) {
			return false
		}
		if !pureExpr(info, st.Cond) {
			return false
		}
		if !orderFreeStmts(info, scoped, st.Body.List) {
			return false
		}
		return st.Else == nil || orderFreeStmt(info, scoped, st.Else)
	case *ast.BlockStmt:
		return orderFreeStmts(info, scoped, st.List)
	case *ast.SwitchStmt:
		if st.Init != nil && !orderFreeStmt(info, scoped, st.Init) {
			return false
		}
		if st.Tag != nil && !pureExpr(info, st.Tag) {
			return false
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			if !pureExprs(info, cc.List) || !orderFreeStmts(info, scoped, cc.Body) {
				return false
			}
		}
		return true
	case *ast.RangeStmt:
		if isMapType(info, st.X) {
			return false // flagged in its own right; the outer loop is not clean
		}
		return pureExpr(info, st.X) && orderFreeStmts(info, scoped, st.Body.List)
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE
	}
	return false
}

// collectThenSorted accepts the collect-keys-then-sort idiom: every
// statement in the loop body appends (pure expressions) to a local slice,
// and each such slice is handed to a sort/slices sorting call after the loop
// in the same function body. The append order is arbitrary, but the sort
// erases it before anything can observe it.
func collectThenSorted(info *types.Info, n *GraphNode, rs *ast.RangeStmt) bool {
	var sinks []types.Object
	for _, s := range rs.Body.List {
		st, ok := s.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != 1 || len(st.Rhs) != 1 ||
			(st.Tok != token.ASSIGN && st.Tok != token.DEFINE) {
			return false
		}
		id, ok := ast.Unparen(st.Lhs[0]).(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return false
		}
		fid, ok := call.Fun.(*ast.Ident)
		if !ok || fid.Name != "append" {
			return false
		}
		if _, isBuiltin := info.Uses[fid].(*types.Builtin); !isBuiltin {
			return false
		}
		a0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok || a0.Name != id.Name || !pureExprs(info, call.Args[1:]) {
			return false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return false
		}
		sinks = append(sinks, obj)
	}
	if len(sinks) == 0 {
		return false
	}
	for _, obj := range sinks {
		if !sortedAfter(info, n, obj, rs.End()) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether obj is the first argument of a sort.* or
// slices.Sort* call positioned after the loop in the node's own body.
func sortedAfter(info *types.Info, n *GraphNode, obj types.Object, after token.Pos) bool {
	found := false
	n.inspectOwn(func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok || call.Pos() < after || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pid, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[pid].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		if aid, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if o, ok := info.Uses[aid]; ok && o == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

func blankIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// mapWritePerKey accepts `m[k] = v` where m is a map and k mentions an
// iteration-scoped variable, so each iteration writes a distinct key.
func mapWritePerKey(info *types.Info, scoped map[types.Object]bool, lhs ast.Expr) bool {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok || !isMapType(info, ix.X) {
		return false
	}
	return usesScoped(info, scoped, ix.Index)
}

func usesScoped(info *types.Info, scoped map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj, ok := info.Uses[id]; ok && scoped[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func integerExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// pureExpr rejects expressions with calls (side effects, order-dependent
// results) except len/cap/min/max and type conversions.
func pureExpr(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return true
	}
	pure := true
	ast.Inspect(e, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return pure
		}
		fun := ast.Unparen(call.Fun)
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return pure // conversion
		}
		if id, ok := fun.(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "len", "cap", "min", "max":
					return pure
				}
			}
		}
		pure = false
		return false
	})
	return pure
}

func pureExprs(info *types.Info, es []ast.Expr) bool {
	for _, e := range es {
		if !pureExpr(info, e) {
			return false
		}
	}
	return true
}
