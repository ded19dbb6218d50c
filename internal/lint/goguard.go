package lint

import "go/ast"

// GoGuard keeps goroutine creation off the data path. The whole kernel is a
// single-threaded event loop (flowguard already relies on that for the flow
// cache); a `go` statement reachable from a Deliver chain or thread body
// spawns concurrency the virtual clock cannot see, breaking both
// determinism and the shard-confinement precondition of the parallel kernel
// (ROADMAP item 1). Legitimate spawn points — test harness drivers, future
// shard workers — must be marked with a `//scout:spawn <why>` comment on or
// immediately above the statement, so every escape from the event loop is a
// documented decision.
var GoGuard = &Analyzer{
	Name:       "goguard",
	Doc:        "no `go` statements reachable from the data path outside annotated spawn points",
	NeedsTypes: true,
	Run:        runGoGuard,
}

func runGoGuard(pass *Pass) {
	g := pass.Pkg.Mod.Graph()
	for _, n := range g.NodesIn(pass.Pkg) {
		if !n.Reachable() {
			continue
		}
		n.inspectOwn(func(x ast.Node) bool {
			gs, ok := x.(*ast.GoStmt)
			if !ok {
				return true
			}
			if commentNear(pass, gs.Pos(), "spawn") {
				return true
			}
			pass.ReportfChain(gs.Pos(), g.Chain(n),
				"`go` statement reachable from the data path escapes the single-threaded event loop; run the work as a sim event, or annotate an intended spawn point with //scout:spawn <why>")
			return true
		})
	}
}
