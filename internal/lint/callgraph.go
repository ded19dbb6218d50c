package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path"
	"sort"
	"strings"
)

// This file builds the module's data-path call graph: the whole-program
// facility the analyzers share (every one but attrkey and flowguard). The
// paper's argument (§3.2) is that invariants fixed at path-creation time make
// aggressive path optimizations sound; the invariants themselves are
// properties of *call chains* rooted at the delivery entry points, not of
// one body at a time. The graph makes those chains
// explicit, so "no wall-clock read on the data path" means no wall-clock
// read in any function the data path can reach — and the sharded parallel
// kernel (ROADMAP item 1) can rely on it.
//
// Nodes are every declared function/method and every function literal in the
// module's non-test files. Edges are:
//
//   - static: the callee is a declared function or a method on a concrete
//     type, resolved through go/types;
//   - interface: the callee is an interface method; conservative resolution
//     adds an edge to the matching method of every module type that
//     implements the interface;
//   - value: the callee is a function-typed value. Struct-field callees
//     (i..Deliver, q.NotEmpty, t.body) resolve to every function value the
//     module assigns to a same-named field with an identical signature;
//     parameter callees resolve through the call sites of the enclosing
//     function; local and package-level variables resolve through their
//     assignments.
//
// The resolution is deliberately conservative in the over-approximate
// direction for interfaces and callback fields (every implementation /
// assignment is an edge). Function values laundered through collections are
// the one under-approximation — compensated by the root set, which already
// includes every function value installed into a known data-path callback
// field.

// GraphEdgeKind classifies how a call edge was resolved.
type GraphEdgeKind uint8

const (
	// EdgeStatic: direct call of a declared function or concrete method.
	EdgeStatic GraphEdgeKind = iota
	// EdgeIface: interface method call, resolved to an implementing method.
	EdgeIface
	// EdgeValue: call of a function-typed value (field, parameter, variable
	// or literal), resolved through assignments and call sites.
	EdgeValue
)

func (k GraphEdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeIface:
		return "iface"
	default:
		return "value"
	}
}

// GraphEdge is one resolved call: To is the callee, Pos the call site.
type GraphEdge struct {
	To   *GraphNode
	Pos  token.Pos
	Kind GraphEdgeKind
}

// GraphNode is one function in the call graph: a declared function/method
// (Fn, Decl set) or a function literal (Lit set; Decl is the enclosing
// declaration, nil for package-level initializer literals).
type GraphNode struct {
	Name  string // stable rendering: "core.(*Path).Inject", "eth.createStage$1"
	Pkg   *Package
	Fn    *types.Func   // nil for literals
	Lit   *ast.FuncLit  // nil for declared functions
	Decl  *ast.FuncDecl // enclosing declaration (self for declared functions)
	Body  *ast.BlockStmt
	Edges []GraphEdge

	// RootWhy is non-empty when the node is a data-path root; it records
	// which root rule matched ("name", "field Deliver", "arg to Interrupt").
	RootWhy string

	reachable bool
	parent    *GraphNode // BFS predecessor on the shortest chain from a root
	parentPos token.Pos  // call site in parent that reaches this node

	cbDirect bool  // body invokes a function-typed value directly
	cbState  uint8 // callback-summary DFS state: 0 new, 1 in progress, 2 done
	cbResult bool
	cbVia    *GraphNode // example callee leading to a callback invocation
	cbPos    token.Pos

	pendingCalls []pendingCall // function-value calls awaiting resolution
	rootArgs     []rootArg     // function values passed to spawn points
}

type pendingCall struct {
	fun ast.Expr
	pos token.Pos
}

type rootArg struct {
	expr ast.Expr
	why  string
}

// Reachable reports whether the node is reachable from a data-path root.
func (n *GraphNode) Reachable() bool { return n.reachable }

// CallGraph is the module-wide graph. Build it once per Module via
// Module.Graph; analyzers share the instance.
type CallGraph struct {
	Mod   *Module
	Nodes []*GraphNode // deterministic (position) order

	byFn  map[*types.Func]*GraphNode
	byLit map[*ast.FuncLit]*GraphNode

	// fieldAssigns maps a struct-field name to every function value the
	// module assigns to a field of that name (composite literals and
	// assignment statements).
	fieldAssigns map[string][]pendingValue
	// callSites maps a declared function to the argument lists of its static
	// call sites, for parameter resolution.
	callSites map[*types.Func][]graphCallSite
	// namedTypes are the module's named types, for interface resolution.
	namedTypes []types.Type

	resolveMemo map[ast.Expr][]*GraphNode
}

type pendingValue struct {
	expr  ast.Expr
	owner *GraphNode // enclosing function, nil at package level
	pkg   *Package
}

type graphCallSite struct {
	args  []ast.Expr
	owner *GraphNode
	pkg   *Package
}

// dataPathRootNames: a declared internal/ function with one of these names
// (or the Deliver prefix) is a delivery entry point by convention.
var dataPathRootNames = map[string]bool{"Inject": true}

// dataPathFields: a function value assigned to a struct field with one of
// these names runs on the data path — delivery chains, queue and scheduler
// hooks, overload and receive callbacks.
var dataPathFields = map[string]bool{
	"Deliver": true, "EarlyDiscard": true, "Wakeup": true, "OnOverload": true,
	"NotEmpty": true, "Drained": true, "OnEnqueue": true, "OnDequeue": true,
	"OnDrop": true, "OnExec": true, "OnReceive": true, "OnReceiveBurst": true,
	"body": true,
}

// dataPathArgFuncs: a function value passed as argument N to a callee with
// one of these names becomes a data-path root — interrupt handlers, thread
// bodies, and deliver functions handed to constructors. Matching is by bare
// callee name; the names are unique in this module (same convention as
// flowguard's mutator table).
var dataPathArgFuncs = map[string]int{
	"Interrupt":   1,
	"NewThread":   2,
	"NewNetIface": 0,
	// Xport.Post continuations run on the destination shard's engine at a
	// window barrier — data path on the far side of a cross-shard boundary.
	"Post": 1,
}

// Graph returns the module's data-path call graph, building it on first use.
func (m *Module) Graph() *CallGraph {
	if m.graph == nil {
		m.graph = buildCallGraph(m)
	}
	return m.graph
}

func buildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{
		Mod:          mod,
		byFn:         make(map[*types.Func]*GraphNode),
		byLit:        make(map[*ast.FuncLit]*GraphNode),
		fieldAssigns: make(map[string][]pendingValue),
		callSites:    make(map[*types.Func][]graphCallSite),
		resolveMemo:  make(map[ast.Expr][]*GraphNode),
	}
	for _, pkg := range mod.Pkgs {
		if pkg.Info == nil {
			continue // analyzers that need the graph also need types
		}
		for _, f := range pkg.Files {
			g.addFile(pkg, f)
		}
	}
	g.collectNamedTypes()
	for _, n := range g.Nodes {
		g.scanNode(n)
	}
	for _, n := range g.Nodes {
		g.resolveValueCalls(n)
	}
	g.markRoots()
	g.propagate()
	return g
}

// addFile creates nodes for every function declaration and literal in f.
func (g *CallGraph) addFile(pkg *Package, f *ast.File) {
	base := path.Base(pkg.Path)
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			n := &GraphNode{
				Name: base + "." + declName(d),
				Pkg:  pkg, Fn: declObj(pkg, d), Decl: d, Body: d.Body,
			}
			g.Nodes = append(g.Nodes, n)
			if n.Fn != nil {
				g.byFn[n.Fn] = n
			}
			g.addLits(pkg, n.Name, d, d.Body)
		case *ast.GenDecl:
			// Function literals in package-level initializers (var x = ...,
			// sync.Pool{New: ...}) still get nodes; they run at boot or via
			// the field they are assigned to. The field assignments
			// themselves belong to no function body.
			g.addLits(pkg, base+".init", nil, d)
			ast.Inspect(d, func(x ast.Node) bool {
				if cl, ok := x.(*ast.CompositeLit); ok {
					g.recordLitFields(pkg, nil, cl)
				}
				_, isLit := x.(*ast.FuncLit)
				return !isLit
			})
		}
	}
}

// addLits creates nodes for the function literals under root (skipping
// literals nested in other literals, which recurse with their own prefix).
func (g *CallGraph) addLits(pkg *Package, prefix string, decl *ast.FuncDecl, root ast.Node) {
	i := 0
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		i++
		node := &GraphNode{
			Name: fmt.Sprintf("%s$%d", prefix, i),
			Pkg:  pkg, Lit: lit, Decl: decl, Body: lit.Body,
		}
		g.Nodes = append(g.Nodes, node)
		g.byLit[lit] = node
		g.addLits(pkg, node.Name, decl, lit.Body)
		return false
	})
}

func declName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := types.ExprString(d.Recv.List[0].Type)
	return "(" + recv + ")." + d.Name.Name
}

func declObj(pkg *Package, d *ast.FuncDecl) *types.Func {
	if obj, ok := pkg.Info.Defs[d.Name]; ok {
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func (g *CallGraph) collectNamedTypes() {
	for _, pkg := range g.Mod.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			g.namedTypes = append(g.namedTypes, tn.Type())
		}
	}
}

// inspectOwn walks the node's own body, not descending into nested function
// literals (each literal is its own node).
func (n *GraphNode) inspectOwn(f func(ast.Node) bool) {
	if n.Body == nil {
		return
	}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return f(x)
	})
}

// scanNode records the node's static and interface edges, its call sites
// (for parameter resolution), its field assignments, and whether it invokes
// a function-typed value directly.
func (g *CallGraph) scanNode(n *GraphNode) {
	n.inspectOwn(func(x ast.Node) bool {
		switch st := x.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if i >= len(st.Rhs) {
					break // x, y = f() — no function value to record
				}
				g.recordFieldAssign(n.Pkg, n, lhs, st.Rhs[i])
			}
		case *ast.CompositeLit:
			g.recordLitFields(n.Pkg, n, st)
		case *ast.CallExpr:
			g.scanCall(n, st)
		}
		return true
	})
}

func (g *CallGraph) recordLitFields(pkg *Package, owner *GraphNode, cl *ast.CompositeLit) {
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			g.recordFieldAssign(pkg, owner, kv.Key, kv.Value)
		}
	}
}

// recordFieldAssign notes a function value assigned to a struct field;
// owner is the enclosing function, nil in a package-level initializer.
func (g *CallGraph) recordFieldAssign(pkg *Package, owner *GraphNode, lhs, rhs ast.Expr) {
	name, ok := fieldName(pkg.Info, lhs)
	if !ok || !isFuncValued(pkg.Info, rhs) {
		return
	}
	g.fieldAssigns[name] = append(g.fieldAssigns[name], pendingValue{expr: rhs, owner: owner, pkg: pkg})
}

// fieldName reports the struct-field name lhs assigns to: a selector
// resolving to a field, or a composite-literal key identifier.
func fieldName(info *types.Info, lhs ast.Expr) (string, bool) {
	switch e := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return e.Sel.Name, true
		}
	case *ast.Ident:
		if obj, ok := info.Uses[e]; ok {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				return e.Name, true
			}
		}
	}
	return "", false
}

func isFuncValued(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

func (g *CallGraph) scanCall(n *GraphNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Direct literal invocation.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if target := g.byLit[lit]; target != nil {
			n.Edges = append(n.Edges, GraphEdge{To: target, Pos: call.Pos(), Kind: EdgeStatic})
		}
		return
	}

	if obj := calleeFunc(info, fun); obj != nil {
		// Interface method call: conservative edges to every implementation.
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
					g.addIfaceEdges(n, call, s.Recv().Underlying().(*types.Interface), sel.Sel.Name)
					g.recordRootArgs(n, call, obj.Name())
					return
				}
			}
		}
		// Static call to a declared function or concrete method.
		if target := g.byFn[obj]; target != nil {
			n.Edges = append(n.Edges, GraphEdge{To: target, Pos: call.Pos(), Kind: EdgeStatic})
		}
		g.callSites[obj] = append(g.callSites[obj], graphCallSite{args: call.Args, owner: n, pkg: n.Pkg})
		g.recordRootArgs(n, call, obj.Name())
		return
	}

	// Function-value call: defer resolution until all assignments and call
	// sites are collected.
	if funcValueCall(info, fun) {
		n.cbDirect = true
		n.pendingCalls = append(n.pendingCalls, pendingCall{fun: fun, pos: call.Pos()})
	}
}

// funcValueCall reports whether fun, a callee naming no declared function
// or literal, is a function-typed value — a callback — rather than a
// conversion (T(x)) or a builtin.
func funcValueCall(info *types.Info, fun ast.Expr) bool {
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return false
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return false
		}
	}
	return isFuncValued(info, fun)
}

// recordRootArgs roots function values passed to the data-path spawn points
// (Interrupt handlers, thread bodies, deliver constructors).
func (g *CallGraph) recordRootArgs(n *GraphNode, call *ast.CallExpr, calleeName string) {
	idx, tracked := dataPathArgFuncs[calleeName]
	if !tracked || idx >= len(call.Args) {
		return
	}
	arg := call.Args[idx]
	if !isFuncValued(n.Pkg.Info, arg) {
		return
	}
	n.rootArgs = append(n.rootArgs, rootArg{expr: arg, why: "arg to " + calleeName})
}

func (g *CallGraph) addIfaceEdges(n *GraphNode, call *ast.CallExpr, iface *types.Interface, method string) {
	for _, t := range g.namedTypes {
		var impl types.Type
		switch {
		case types.Implements(t, iface):
			impl = t
		case types.Implements(types.NewPointer(t), iface):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, n.Pkg.Types, method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if target := g.byFn[fn]; target != nil {
			n.Edges = append(n.Edges, GraphEdge{To: target, Pos: call.Pos(), Kind: EdgeIface})
		}
	}
}

// calleeFunc resolves fun to the *types.Func it statically names, or nil.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch e := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// resolveValueCalls turns the node's pending function-value calls into value
// edges, and resolves its root-argument expressions.
func (g *CallGraph) resolveValueCalls(n *GraphNode) {
	for _, pc := range n.pendingCalls {
		for _, target := range g.resolveFuncValue(pc.fun, n, 4) {
			n.Edges = append(n.Edges, GraphEdge{To: target, Pos: pc.pos, Kind: EdgeValue})
		}
	}
	for _, ra := range n.rootArgs {
		for _, target := range g.resolveFuncValue(ra.expr, n, 4) {
			if target.RootWhy == "" {
				target.RootWhy = ra.why
			}
		}
	}
}

// resolveFuncValue resolves a function-valued expression to the graph nodes
// it may denote: literals to their own node, named functions and method
// values to the declared node, struct fields to every same-named same-signed
// assignment, parameters through the enclosing function's call sites, and
// variables through their assignments. depth bounds the recursion.
func (g *CallGraph) resolveFuncValue(expr ast.Expr, owner *GraphNode, depth int) []*GraphNode {
	if depth <= 0 || expr == nil {
		return nil
	}
	expr = ast.Unparen(expr)
	if memo, ok := g.resolveMemo[expr]; ok {
		return memo
	}
	g.resolveMemo[expr] = nil // cycle guard

	var pkg *Package
	if owner != nil {
		pkg = owner.Pkg
	} else {
		pkg = g.pkgOf(expr)
	}
	if pkg == nil || pkg.Info == nil {
		return nil
	}
	info := pkg.Info

	var out []*GraphNode
	switch e := expr.(type) {
	case *ast.FuncLit:
		if node := g.byLit[e]; node != nil {
			out = append(out, node)
		}
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			if node := g.byFn[obj]; node != nil {
				out = append(out, node)
			}
		case *types.Var:
			out = g.resolveVar(obj, e, owner, depth)
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok { // method value t.M
			if node := g.byFn[fn]; node != nil {
				out = append(out, node)
			}
			break
		}
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			out = g.resolveField(e.Sel.Name, info.Types[expr].Type, depth)
		}
	}
	g.resolveMemo[expr] = out
	return out
}

// resolveField resolves a function-typed struct field to the values the
// module assigns to any same-named field with an identical signature.
func (g *CallGraph) resolveField(name string, fieldType types.Type, depth int) []*GraphNode {
	want := sigKey(fieldType)
	var out []*GraphNode
	seen := map[*GraphNode]bool{}
	for _, pv := range g.fieldAssigns[name] {
		tv, ok := pv.pkg.Info.Types[pv.expr]
		if !ok || sigKey(tv.Type) != want {
			continue
		}
		for _, node := range g.resolveFuncValue(pv.expr, pv.owner, depth-1) {
			if !seen[node] {
				seen[node] = true
				out = append(out, node)
			}
		}
	}
	return out
}

// resolveVar resolves a function-typed variable: parameters through the
// enclosing function's call sites, locals and package-level variables
// through their assignments.
func (g *CallGraph) resolveVar(v *types.Var, use *ast.Ident, owner *GraphNode, depth int) []*GraphNode {
	var out []*GraphNode
	seen := map[*GraphNode]bool{}
	add := func(nodes []*GraphNode) {
		for _, n := range nodes {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}

	// Parameter of the enclosing declared function: resolve the matching
	// argument at every static call site.
	if owner != nil && owner.Fn != nil {
		if idx := paramIndex(owner.Fn, v); idx >= 0 {
			for _, site := range g.callSites[owner.Fn] {
				if idx < len(site.args) {
					add(g.resolveFuncValue(site.args[idx], site.owner, depth-1))
				}
			}
			return out
		}
	}

	// Assignments to the variable, in the owning body (locals) or anywhere
	// in the declaring package (package-level vars).
	scan := func(pkg *Package, root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch st := x.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || i >= len(st.Rhs) {
						continue
					}
					if pkg.Info.Uses[id] == v || pkg.Info.Defs[id] == v {
						add(g.resolveFuncValue(st.Rhs[i], g.enclosing(pkg, st.Pos()), depth-1))
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if pkg.Info.Defs[name] == v && i < len(st.Values) {
						add(g.resolveFuncValue(st.Values[i], g.enclosing(pkg, st.Pos()), depth-1))
					}
				}
			}
			return true
		})
	}
	if owner != nil && v.Parent() != nil && v.Parent() != owner.Pkg.Types.Scope() {
		if owner.Body != nil {
			scan(owner.Pkg, owner.Body)
		}
		return out
	}
	if pkg := g.pkgOfObj(v); pkg != nil {
		for _, f := range pkg.Files {
			scan(pkg, f)
		}
	}
	return out
}

func paramIndex(fn *types.Func, v *types.Var) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return i
		}
	}
	return -1
}

// enclosing finds the innermost graph node whose body spans pos.
func (g *CallGraph) enclosing(pkg *Package, pos token.Pos) *GraphNode {
	var best *GraphNode
	for _, n := range g.Nodes {
		if n.Pkg != pkg || n.Body == nil {
			continue
		}
		if n.Body.Pos() <= pos && pos <= n.Body.End() {
			if best == nil || n.Body.Pos() >= best.Body.Pos() {
				best = n
			}
		}
	}
	return best
}

func (g *CallGraph) pkgOf(expr ast.Expr) *Package {
	for _, pkg := range g.Mod.Pkgs {
		if pkg.Info == nil {
			continue
		}
		if _, ok := pkg.Info.Types[expr]; ok {
			return pkg
		}
	}
	return nil
}

func (g *CallGraph) pkgOfObj(obj types.Object) *Package {
	if obj.Pkg() == nil {
		return nil
	}
	return g.Mod.byPath[obj.Pkg().Path()]
}

// sigKey renders a signature for structural comparison; method receivers are
// dropped, matching method-value semantics.
func sigKey(t types.Type) string {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return ""
	}
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), nil))
	}
	b.WriteByte(')')
	return b.String()
}

// markRoots applies the root rules: delivery-named internal functions, and
// (already set by resolveValueCalls) values assigned to data-path fields or
// passed to the spawn points.
func (g *CallGraph) markRoots() {
	for name, pvs := range g.fieldAssigns {
		if !dataPathFields[name] {
			continue
		}
		for _, pv := range pvs {
			for _, node := range g.resolveFuncValue(pv.expr, pv.owner, 4) {
				if node.RootWhy == "" {
					node.RootWhy = "assigned to data-path field " + name
				}
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Fn == nil || n.Decl == nil || !n.Pkg.Internal() {
			continue
		}
		fname := n.Decl.Name.Name
		if dataPathRootNames[fname] || strings.HasPrefix(fname, "Deliver") {
			if n.RootWhy == "" {
				n.RootWhy = "delivery entry point (name)"
			}
		}
	}
}

// propagate runs BFS from the roots, recording each node's predecessor so
// diagnostics can print the full root-to-finding call chain.
func (g *CallGraph) propagate() {
	var queue []*GraphNode
	for _, n := range g.Nodes {
		if n.RootWhy != "" {
			n.reachable = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if e.To.reachable {
				continue
			}
			e.To.reachable = true
			e.To.parent = n
			e.To.parentPos = e.Pos
			queue = append(queue, e.To)
		}
	}
}

// Chain renders the shortest root-to-node call chain, one frame per line,
// for `scoutlint -why`.
func (g *CallGraph) Chain(n *GraphNode) []string {
	if n == nil || !n.reachable {
		return nil
	}
	var rev []*GraphNode
	for at := n; at != nil; at = at.parent {
		rev = append(rev, at)
	}
	var out []string
	for i := len(rev) - 1; i >= 0; i-- {
		at := rev[i]
		switch {
		case at.parent == nil:
			out = append(out, fmt.Sprintf("%s [root: %s]", at.Name, at.RootWhy))
		default:
			out = append(out, fmt.Sprintf("-> %s (%s)", at.Name, g.pos(at.parentPos)))
		}
	}
	return out
}

func (g *CallGraph) pos(p token.Pos) string {
	position := g.Mod.Fset.Position(p)
	return fmt.Sprintf("%s:%d", g.Mod.relPath(position.Filename), position.Line)
}

// NodesIn returns the graph nodes belonging to pkg, in position order.
func (g *CallGraph) NodesIn(pkg *Package) []*GraphNode {
	var out []*GraphNode
	for _, n := range g.Nodes {
		if n.Pkg == pkg {
			out = append(out, n)
		}
	}
	return out
}

// NodeByName finds a node by its rendered name (tests and tooling).
func (g *CallGraph) NodeByName(name string) *GraphNode {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Dump writes the graph in a stable text form: a header, the sorted root
// set, and the sorted edge list. CI archives this as a build artifact so a
// reviewer can diff how the data-path surface changed.
func (g *CallGraph) Dump(w io.Writer) error {
	reach := 0
	edges := 0
	for _, n := range g.Nodes {
		if n.reachable {
			reach++
		}
		edges += len(n.Edges)
	}
	if _, err := fmt.Fprintf(w, "# data-path call graph: %d nodes, %d edges, %d reachable from roots\n",
		len(g.Nodes), edges, reach); err != nil {
		return err
	}
	var roots, edgeLines []string
	for _, n := range g.Nodes {
		if n.RootWhy != "" {
			roots = append(roots, fmt.Sprintf("root %s\t%s", n.Name, n.RootWhy))
		}
		for _, e := range n.Edges {
			edgeLines = append(edgeLines, fmt.Sprintf("edge %s -> %s\t%s\t%s", n.Name, e.To.Name, e.Kind, g.pos(e.Pos)))
		}
	}
	sort.Strings(roots)
	sort.Strings(edgeLines)
	for _, l := range append(roots, edgeLines...) {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
