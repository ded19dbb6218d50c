package core

import (
	"errors"
	"fmt"
	"sort"

	"scout/internal/attr"
)

// NoService is the service index passed to CreateStage when a path is
// created on a router directly rather than entering through one of its
// services. It matches the paper's use of -1.
const NoService = -1

// ServiceSpec describes one service of a router, as a spec file would
// (§3.1). InitAfterPeers corresponds to the '<' marker: routers connected to
// this service must be initialized before this router.
type ServiceSpec struct {
	Name           string
	Type           *ServiceType
	InitAfterPeers bool
}

// NextHop names the router/service pair a path must traverse next; a nil
// *NextHop from CreateStage ends path creation (§3.3).
type NextHop struct {
	Router  *Router
	Service int // service index on Router through which the path enters
}

// Impl is what a router author writes: the paper's init and createStage
// function pointers plus the service declarations from the spec file. The
// third pointer, demux (§3.5), is not part of this interface: a router that
// classifies registers a continuation with the router below it (see
// eth.BindType).
type Impl interface {
	// Services declares the router's external interface.
	Services() []ServiceSpec
	// Init is called once at boot, in the partial order induced by the
	// InitAfterPeers markers.
	Init(r *Router) error
	// CreateStage contributes this router's stage to a path under
	// construction. enter is the index of the service through which the
	// path enters (NoService if the path starts here); a carries the
	// invariants, which the router may refine for downstream routers.
	// The returned NextHop selects the next router, or nil if the path
	// ends here (leaf router or invariants too weak, §2.5).
	CreateStage(r *Router, enter int, a *attr.Attrs) (*Stage, *NextHop, error)
}

// Link is one edge endpoint: the peer router and the peer's service index.
type Link struct {
	Peer        *Router
	PeerService int
}

// Router is the runtime representation of a module in the router graph.
type Router struct {
	Name  string
	Impl  Impl
	Graph *Graph

	services []ServiceSpec
	links    [][]Link // per service index
	inited   bool
}

// ServiceIndex resolves a service name to its index; it panics on unknown
// names because that is always a programming error in graph construction.
//
//scout:assert unknown service names come from wiring code, never from packets
func (r *Router) ServiceIndex(name string) int {
	for i, s := range r.services {
		if s.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("core: router %s has no service %q", r.Name, name))
}

// Service returns the spec of service i.
func (r *Router) Service(i int) ServiceSpec { return r.services[i] }

// Links returns the edges attached to service i (may be empty).
func (r *Router) Links(i int) []Link { return r.links[i] }

// Link returns the single edge attached to the named service; it errors if
// the service is unconnected or connected more than once, which forces
// routers that assume a unique peer to state that assumption.
func (r *Router) Link(name string) (Link, error) {
	ls := r.links[r.ServiceIndex(name)]
	if len(ls) != 1 {
		return Link{}, fmt.Errorf("core: %s.%s has %d links, want exactly 1", r.Name, name, len(ls))
	}
	return ls[0], nil
}

// LinksOf returns every edge attached to the named service, in connection
// order (may be empty). Multi-homed routers — IP over several parallel ETH
// links — iterate this instead of assuming Link's unique peer.
func (r *Router) LinksOf(name string) []Link { return r.links[r.ServiceIndex(name)] }

func (r *Router) String() string { return r.Name }

// Graph is the router graph: the modular structure of the system (§2.2). It
// is configured at build time (routers added, services connected,
// transformation rules selected) and then built, which checks service-type
// compatibility and initializes routers in dependency order.
type Graph struct {
	routers []*Router
	byName  map[string]*Router
	rules   []Rule
	built   bool
	nextPID int64

	// flowCaches are the device-edge flow caches registered against this
	// graph. Anything that can change a classification decision (rule
	// changes, demux-table updates, route learning) calls InvalidateFlows so
	// no cache can serve a stale decision.
	flowCaches []*FlowCache
	// noFuse disables the path-fusion phase of CreatePath; only the
	// reference kernel sets it.
	noFuse bool
}

// NewGraph returns an empty router graph.
func NewGraph() *Graph {
	return &Graph{byName: make(map[string]*Router)}
}

// RegisterFlowCache attaches a device-edge flow cache to the graph so
// control-plane changes can invalidate it.
func (g *Graph) RegisterFlowCache(fc *FlowCache) {
	if fc == nil {
		return
	}
	g.flowCaches = append(g.flowCaches, fc)
}

// InvalidateFlows empties every registered flow cache. Called on any event
// that can change a classification decision: demux-table updates (UDP port
// bind/unbind), rule changes, ARP/route learning.
func (g *Graph) InvalidateFlows() {
	for _, fc := range g.flowCaches {
		fc.InvalidateAll()
	}
}

// SetFuse enables or disables the path-fusion phase for subsequently created
// paths (it is on by default). The reference kernel (appliance.BootReference)
// uses the off position: unfused per-hop dispatch is the oracle that proves
// the fused chain behaviour-identical.
func (g *Graph) SetFuse(on bool) { g.noFuse = !on }

// Add creates a router named name implemented by impl. Names must be unique
// within the graph.
func (g *Graph) Add(name string, impl Impl) *Router {
	if g.built {
		panic("core: Add after Build")
	}
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("core: duplicate router name %q", name))
	}
	specs := impl.Services()
	r := &Router{Name: name, Impl: impl, Graph: g, services: specs, links: make([][]Link, len(specs))}
	g.routers = append(g.routers, r)
	g.byName[name] = r
	return r
}

// Router looks up a router by name.
func (g *Graph) Router(name string) (*Router, bool) {
	r, ok := g.byName[name]
	return r, ok
}

// Routers returns the graph's routers in insertion order.
func (g *Graph) Routers() []*Router { return g.routers }

// Connect links service aSvc of a to service bSvc of b, after checking the
// service types are mutually compatible (§3.1).
func (g *Graph) Connect(a *Router, aSvc string, b *Router, bSvc string) error {
	if g.built {
		return errors.New("core: Connect after Build")
	}
	ai, bi := a.ServiceIndex(aSvc), b.ServiceIndex(bSvc)
	at, bt := a.services[ai].Type, b.services[bi].Type
	if !at.CanConnect(bt) {
		return fmt.Errorf("core: cannot connect %s.%s (%s) to %s.%s (%s): incompatible service types",
			a.Name, aSvc, at.Name, b.Name, bSvc, bt.Name)
	}
	a.links[ai] = append(a.links[ai], Link{Peer: b, PeerService: bi})
	b.links[bi] = append(b.links[bi], Link{Peer: a, PeerService: ai})
	return nil
}

// MustConnect is Connect but panics on error; for boot-time wiring.
func (g *Graph) MustConnect(a *Router, aSvc string, b *Router, bSvc string) {
	if err := g.Connect(a, aSvc, b, bSvc); err != nil {
		panic(err)
	}
}

// Build finalizes the graph: it computes the initialization partial order
// from the InitAfterPeers markers, rejects cyclic initialization
// dependencies (the configuration tool's job in §3.1), and calls each
// router's Init.
func (g *Graph) Build() error {
	if g.built {
		return errors.New("core: Build called twice")
	}
	order, err := g.initOrder()
	if err != nil {
		return err
	}
	for _, r := range order {
		if err := r.Impl.Init(r); err != nil {
			return fmt.Errorf("core: init %s: %w", r.Name, err)
		}
		r.inited = true
	}
	g.built = true
	return nil
}

// initOrder topologically sorts routers so that for every service marked
// InitAfterPeers, the peers come first. Ties are broken by name for
// determinism.
func (g *Graph) initOrder() ([]*Router, error) {
	// dep[r] = set of routers that must be initialized before r.
	dep := make(map[*Router]map[*Router]bool, len(g.routers))
	for _, r := range g.routers {
		dep[r] = make(map[*Router]bool)
	}
	for _, r := range g.routers {
		for si, spec := range r.services {
			if !spec.InitAfterPeers {
				continue
			}
			for _, l := range r.links[si] {
				if l.Peer != r {
					dep[r][l.Peer] = true
				}
			}
		}
	}
	var order []*Router
	done := make(map[*Router]bool)
	remaining := append([]*Router(nil), g.routers...)
	sort.Slice(remaining, func(i, j int) bool { return remaining[i].Name < remaining[j].Name })
	for len(order) < len(g.routers) {
		progressed := false
		for _, r := range remaining {
			if done[r] {
				continue
			}
			ready := true
			for d := range dep[r] {
				if !done[d] {
					ready = false
					break
				}
			}
			if ready {
				order = append(order, r)
				done[r] = true
				progressed = true
			}
		}
		if !progressed {
			var cyc []string
			for _, r := range remaining {
				if !done[r] {
					cyc = append(cyc, r.Name)
				}
			}
			return nil, fmt.Errorf("core: cyclic initialization dependency among %v", cyc)
		}
	}
	return order, nil
}

// ErrNoPath is returned by demux when no path wants the message; the caller
// (typically a device driver) simply discards the offending data (§3.5).
var ErrNoPath = errors.New("core: no path for message")
