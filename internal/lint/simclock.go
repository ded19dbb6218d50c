package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
)

// Simclock enforces virtual-clock determinism (DESIGN.md's substitution
// table: wall-clock time is replaced by the discrete-event clock in
// internal/sim). Code must not consult the wall clock or the global
// math/rand source: results would differ run to run, and the paper's
// experiments (Tables 1-5) are only reproducible because every delay and
// every random draw comes from the seeded simulation engine. Two scopes are
// checked: every file under internal/ (tests included), and, outside
// internal/, every function a data-path root reaches — a command may time
// itself, but not from inside a Deliver chain.
var Simclock = &Analyzer{
	Name:         "simclock",
	Doc:          "forbid wall-clock time and global math/rand in virtual-clock code",
	IncludeTests: true,
	Run:          runSimclock,
}

// timeBanned are the package time functions that read or wait on the wall
// clock. Types and constants (time.Duration, time.Millisecond) stay legal:
// the virtual clock measures in time.Duration too.
var timeBanned = map[string]string{
	"Now":       "read the engine clock (sim.Engine.Now) instead",
	"Sleep":     "schedule a sim event (sim.Engine.At/Tick) instead",
	"After":     "schedule a sim event (sim.Engine.At/Tick) instead",
	"Tick":      "schedule a sim event (sim.Engine.Tick) instead",
	"AfterFunc": "schedule a sim event (sim.Engine.At) instead",
	"NewTimer":  "schedule a sim event (sim.Engine.At) instead",
	"NewTicker": "schedule a sim event (sim.Engine.Tick) instead",
	"Since":     "subtract sim.Engine.Now values instead",
	"Until":     "subtract sim.Engine.Now values instead",
}

// randBanned are the package-level math/rand functions that draw from the
// unseeded (or globally shared) source. rand.New(rand.NewSource(seed)) is
// the sanctioned form: every path/experiment owns a seeded generator.
var randBanned = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "IntN": true, "Int32": true,
	"Int32N": true, "Int64": true, "Int64N": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
}

func runSimclock(pass *Pass) {
	if pass.Pkg.Internal() {
		for _, f := range pass.Files {
			imports := clockImports(f)
			if len(imports) == 0 {
				continue
			}
			ast.Inspect(f, func(x ast.Node) bool {
				checkClock(pass, imports, x, nil)
				return true
			})
		}
		return
	}
	for _, n := range pass.Pkg.Mod.Graph().NodesIn(pass.Pkg) {
		if n.Reachable() {
			n.inspectOwn(func(x ast.Node) bool {
				checkClock(pass, nil, x, n)
				return true
			})
		}
	}
}

// checkClock reports x when it selects a banned time or math/rand function.
// The package behind an identifier comes from type info when there is any,
// which also rules out a local shadowing the import; test files have none,
// and fall back to the file's import names. n, when set, is the data-path
// graph node holding x, whose root chain the finding carries.
func checkClock(pass *Pass, imports map[string]string, x ast.Node, n *GraphNode) {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	path := imports[id.Name]
	if pass.Pkg.Info != nil {
		if obj, ok := pass.Pkg.Info.Uses[id]; ok {
			pn, isPkg := obj.(*types.PkgName)
			if !isPkg {
				return
			}
			path = pn.Imported().Path()
		}
	}
	var msg string
	switch path {
	case "time":
		if why, banned := timeBanned[sel.Sel.Name]; banned {
			msg = fmt.Sprintf("wall-clock time.%s breaks virtual-clock determinism; %s", sel.Sel.Name, why)
		}
	case "math/rand", "math/rand/v2":
		if randBanned[sel.Sel.Name] {
			msg = fmt.Sprintf("global %s.%s draws from a shared unseeded source; use a seeded rand.New(rand.NewSource(seed))", id.Name, sel.Sel.Name)
		}
	}
	if msg == "" {
		return
	}
	var chain []string
	if n != nil {
		chain = pass.Pkg.Mod.Graph().Chain(n)
	}
	pass.ReportfChain(sel.Pos(), chain, "%s", msg)
}

// clockImports maps the local names under which f imports "time",
// "math/rand" or "math/rand/v2" to the import path.
func clockImports(f *ast.File) map[string]string {
	names := map[string]string{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := "time"
		switch path {
		case "time":
		case "math/rand", "math/rand/v2":
			name = "rand"
		default:
			continue
		}
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		names[name] = path
	}
	return names
}
