package lint

import (
	"go/ast"
	"go/types"
)

// NoPanic enforces error discipline on the data path. A Scout path survives
// bad packets: a malformed TCP segment or an oversized fbuf request must
// surface as an error the path (or its creator) handles, never as a crash of
// the whole appliance. A panic is a finding when a data-path root reaches
// the function holding it, through any chain of calls. Panics off every
// data-path chain — boot-time wiring, constructors, the codec's encoder —
// are allowed: they fire at configuration time (§3.1's configuration step),
// before any path exists.
//
// A function whose doc comment carries `//scout:assert <why>` is exempt
// even on the path: the marker documents that its panics are fail-loud
// assertions on kernel-corruption invariants (an fbuf freed twice, the
// virtual clock running backwards) where continuing would corrupt state.
var NoPanic = &Analyzer{
	Name:       "nopanic",
	Doc:        "no panic reachable from the data path unless the function is marked //scout:assert",
	NeedsTypes: true,
	Run:        runNoPanic,
}

func runNoPanic(pass *Pass) {
	g := pass.Pkg.Mod.Graph()
	for _, n := range g.NodesIn(pass.Pkg) {
		if !n.Reachable() || (n.Decl != nil && markedGroup(n.Decl.Doc, "assert")) {
			continue
		}
		n.inspectOwn(func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, builtin := pass.Pkg.Info.Uses[id].(*types.Builtin); !builtin {
				return true
			}
			pass.ReportfChain(call.Pos(), g.Chain(n),
				"panic in %s is reachable from the data path; return an error, or mark the function //scout:assert <why> if this guards kernel-corruption invariants", n.Name)
			return true
		})
	}
}
