package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafe flags calls made while a sync.Mutex/RWMutex is held that hand
// control to a callback: the call invokes a function-typed value (a struct
// field like core.Stage.Establish or an fbuf release hook, a parameter, a
// variable), or its callee — a declared function or an immediately invoked
// literal — does so through any chain of static and interface calls.
// Calling user code under a pool or scheduler lock is a deadlock and
// reentrancy hazard: the callback may call straight back into the locked
// object — the fbuf free path (msg.Releaser) re-enters the pool by design, so
// a pool that invoked callbacks under its own mutex would self-deadlock. The
// fused delivery chain makes the distant case easy to create (DeliverNext is
// an innocent-looking method that immediately calls a Deliver function
// value), so the rule follows calls, not just one body.
var LockSafe = &Analyzer{
	Name:       "locksafe",
	Doc:        "no callback invoked, directly or through calls, while a mutex is held",
	NeedsTypes: true,
	Run:        runLockSafe,
}

func runLockSafe(pass *Pass) {
	if !pass.Pkg.Internal() {
		return
	}
	g := pass.Pkg.Mod.Graph()
	info := pass.Pkg.Info
	for _, n := range g.NodesIn(pass.Pkg) {
		windows := collectLockWindows(info, n)
		if len(windows) == 0 {
			continue
		}
		n.inspectOwn(func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			w := windows.at(call.Pos())
			if w == nil {
				return true
			}
			fun := ast.Unparen(call.Fun)
			var target *GraphNode
			if lit, ok := fun.(*ast.FuncLit); ok {
				target = g.byLit[lit]
			} else if callee := calleeFunc(info, fun); callee != nil {
				target = g.byFn[callee]
			} else if funcValueCall(info, fun) {
				pass.Reportf(call.Pos(), "callback %s invoked while %s; release the mutex before calling user code",
					types.ExprString(fun), w.held(pass.Pkg.Mod.Fset))
				return true
			}
			if target != nil && invokesCallback(target) {
				pass.ReportfChain(call.Pos(), callbackTrail(g, target),
					"%s called while %s eventually invokes a callback (via %s); release the lock before calling into the delivery chain",
					target.Name, w.held(pass.Pkg.Mod.Fset), trailSummary(target))
			}
			return true
		})
	}
}

// lockWindow is the span of a body in which recv's mutex is held: from the
// end of the Lock()/RLock() call to the next matching non-deferred unlock,
// or to the end of the body (end == token.NoPos) when the unlock is deferred.
type lockWindow struct {
	recv, kind string // rendered receiver ("p.mu") and "Lock" or "RLock"
	lock, end  token.Pos
}

// held renders the window for a message: "p.mu is held (Lock at line 14)".
func (w *lockWindow) held(fset *token.FileSet) string {
	return fmt.Sprintf("%s is held (%s at line %d)", w.recv, w.kind, fset.Position(w.lock).Line)
}

type lockWindows []lockWindow

// at returns the first window that holds a lock at p, or nil.
func (ws lockWindows) at(p token.Pos) *lockWindow {
	for i, w := range ws {
		if p > w.lock && (w.end == token.NoPos || p < w.end) {
			return &ws[i]
		}
	}
	return nil
}

// collectLockWindows records, per mutex receiver expression, the span from
// each Lock() to the next matching non-deferred Unlock() (or the end of the
// body when the unlock is deferred). The matching is syntactic, which is
// exactly right for the flat lock/defer-unlock shapes this module allows;
// locksafe and shardguard share it.
func collectLockWindows(info *types.Info, n *GraphNode) lockWindows {
	var open, set lockWindows
	deferred := map[*ast.CallExpr]bool{}
	n.inspectOwn(func(x ast.Node) bool {
		if d, ok := x.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	n.inspectOwn(func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method, ok := mutexMethod(info, call)
		if !ok {
			return true
		}
		switch method {
		case "Lock", "RLock":
			open = append(open, lockWindow{recv: recv, kind: method, lock: call.End()})
		case "Unlock", "RUnlock":
			if deferred[call] {
				return true // held to the end of the body
			}
			for i := len(open) - 1; i >= 0; i-- {
				if open[i].recv == recv {
					w := open[i]
					w.end = call.Pos()
					set = append(set, w)
					open = append(open[:i], open[i+1:]...)
					break
				}
			}
		}
		return true
	})
	return append(set, open...)
}

// mutexMethod reports whether call is recv.Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the rendered receiver.
func mutexMethod(info *types.Info, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	tv, okType := info.Types[sel.X]
	if !okType {
		return "", "", false
	}
	t := tv.Type
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// invokesCallback reports whether the node, or anything it can reach over
// static and interface edges, calls a function-typed value. Value edges are
// excluded from propagation: the node *making* a value call is already
// counted by cbDirect, and following the resolved values would double-count
// the same hand-off.
func invokesCallback(n *GraphNode) bool {
	switch n.cbState {
	case 1: // in progress: assume false; a cycle cannot add new callbacks
		return false
	case 2:
		return n.cbResult
	}
	n.cbState = 1
	result := n.cbDirect
	if !result {
		for _, e := range n.Edges {
			if e.Kind == EdgeValue {
				continue
			}
			if invokesCallback(e.To) {
				result = true
				n.cbVia = e.To
				n.cbPos = e.Pos
				break
			}
		}
	}
	n.cbState = 2
	n.cbResult = result
	return result
}

// trailSummary names the function where the callback invocation happens.
func trailSummary(n *GraphNode) string {
	at := n
	for at.cbVia != nil {
		at = at.cbVia
	}
	return at.Name
}

// callbackTrail renders the call chain from the locked call site down to the
// callback invocation, for `-why`.
func callbackTrail(g *CallGraph, n *GraphNode) []string {
	var out []string
	out = append(out, fmt.Sprintf("%s [called under lock]", n.Name))
	for at := n; at.cbVia != nil; at = at.cbVia {
		out = append(out, fmt.Sprintf("-> %s (%s)", at.cbVia.Name, g.pos(at.cbPos)))
	}
	out = append(out, "-> <callback invocation>")
	return out
}
