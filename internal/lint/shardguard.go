package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardGuard finds the shared mutable state that would make a sharded
// parallel simulation kernel (ROADMAP item 1) racy: package-level variables
// that are mutated somewhere in the module and touched — read or written —
// by a function reachable from the data-path call graph roots. Today the
// whole kernel runs in one goroutine, so such state is merely a determinism
// smell; the moment the engine shards into N event loops it becomes a data
// race. Flagging it now means the tree is provably ready for the split.
//
// A reference is accepted when the variable is already shard-safe:
//
//   - its type lives in sync or sync/atomic (or is a struct whose every
//     field does) — the synchronization primitive is the point;
//   - it is only ever written by init functions or package-level
//     initializers (immutable after boot, like mpeg's cosTable);
//   - the access happens while the function holds a package-level mutex
//     (the degrade registry pattern);
//   - its declaration carries a `//scout:confined <why>` comment, the
//     documented claim that the state is confined to one shard or otherwise
//     safe. The reason is mandatory.
var ShardGuard = &Analyzer{
	Name:       "shardguard",
	Doc:        "no unsynchronized package-level mutable state reachable from the data path",
	NeedsTypes: true,
	Run:        runShardGuard,
}

func runShardGuard(pass *Pass) {
	g := pass.Pkg.Mod.Graph()
	sh := pass.Pkg.Mod.shardFacts()
	for _, n := range g.NodesIn(pass.Pkg) {
		if !n.Reachable() {
			continue
		}
		reported := map[*types.Var]bool{}
		lockWindows := collectLockWindows(pass.Pkg.Info, n)
		n.inspectOwn(func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.Pkg.Info.Uses[id].(*types.Var)
			if !ok || reported[v] || !sh.mutableGlobal(v) {
				return true
			}
			if lockWindows.at(id.Pos()) != nil {
				return true
			}
			reported[v] = true
			pass.ReportfChain(id.Pos(), g.Chain(n),
				"package-level mutable %s.%s reached from the data path without synchronization; make it shard-local, guard it with a lock, or declare //scout:confined <why>",
				v.Pkg().Name(), v.Name())
			return true
		})
	}
}

// shardModFacts is the module-wide shardguard state: which package-level
// variables are mutated outside boot, and which are annotated as confined.
type shardModFacts struct {
	mutated  map[*types.Var]bool
	confined map[*types.Var]bool
}

// shardFacts returns the module's shardguard facts, building them on first
// use; like the call graph, they live and die with the Module.
func (m *Module) shardFacts() *shardModFacts {
	if m.shard != nil {
		return m.shard
	}
	f := &shardModFacts{mutated: map[*types.Var]bool{}, confined: map[*types.Var]bool{}}
	for _, pkg := range m.Pkgs {
		if pkg.Info == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil || d.Name.Name == "init" {
						continue
					}
					f.collectWrites(pkg, scope, d.Body)
				case *ast.GenDecl:
					f.collectConfined(pkg, d)
				}
			}
		}
	}
	m.shard = f
	return f
}

// collectWrites records package-level variables assigned (or inc/dec'd, or
// written through an index/selector/star expression) anywhere in body.
// Writes inside init functions and package-level initializers never reach
// here, so a variable only they touch stays "immutable after boot".
func (f *shardModFacts) collectWrites(pkg *Package, scope *types.Scope, body ast.Node) {
	note := func(e ast.Expr) {
		if v := rootGlobal(pkg.Info, scope, e); v != nil {
			f.mutated[v] = true
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch st := x.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				note(lhs)
			}
		case *ast.IncDecStmt:
			note(st.X)
		case *ast.UnaryExpr:
			if st.Op == token.AND {
				note(st.X) // address taken: assume it escapes to a writer
			}
		}
		return true
	})
}

// rootGlobal peels index/selector/star layers off an lvalue and reports the
// package-level variable at its root, if any.
func rootGlobal(info *types.Info, scope *types.Scope, e ast.Expr) *types.Var {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.Ident:
			v, ok := info.Uses[t].(*types.Var)
			if ok && v.Parent() == scope {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// collectConfined records `//scout:confined <why>` annotations on var
// declarations; a bare marker with no reason is ignored.
func (f *shardModFacts) collectConfined(pkg *Package, d *ast.GenDecl) {
	if d.Tok != token.VAR {
		return
	}
	declMarked := markedGroup(d.Doc, "confined")
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if !declMarked && !markedGroup(vs.Doc, "confined") && !markedGroup(vs.Comment, "confined") {
			continue
		}
		for _, name := range vs.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				f.confined[v] = true
			}
		}
	}
}

// mutableGlobal reports whether v is a package-level variable that the
// parallel kernel would race on: mutated after boot, not a synchronization
// primitive, and not annotated as confined.
func (f *shardModFacts) mutableGlobal(v *types.Var) bool {
	if v.Parent() == nil || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	if !f.mutated[v] || f.confined[v] {
		return false
	}
	return !shardSafeType(v.Type())
}

// shardSafeType accepts types that are themselves synchronization: anything
// from sync or sync/atomic, and structs composed entirely of such fields
// (msg's atomic stats block).
func shardSafeType(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			if p := pkg.Path(); p == "sync" || p == "sync/atomic" {
				return true
			}
		}
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if !shardSafeType(st.Field(i).Type()) {
			return false
		}
	}
	return true
}
