package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"scout/internal/attr"
	"scout/internal/msg"
)

// testImpl is a configurable router implementation used throughout the
// package tests. It builds pass-through NetIface stages that record the
// routers a message visits.
type testImpl struct {
	services  []ServiceSpec
	initErr   error
	initLog   *[]string
	estLog    *[]string
	trace     *[]string
	route     func(r *Router, enter int, a *attr.Attrs) *NextHop
	stageErr  error
	onDestroy func(r *Router)
	fuse      func(s *Stage)
}

func (t *testImpl) Services() []ServiceSpec { return t.services }

func (t *testImpl) Init(r *Router) error {
	if t.initLog != nil {
		*t.initLog = append(*t.initLog, r.Name)
	}
	return t.initErr
}

func (t *testImpl) CreateStage(r *Router, enter int, a *attr.Attrs) (*Stage, *NextHop, error) {
	if t.stageErr != nil {
		return nil, nil, t.stageErr
	}
	s := &Stage{}
	mk := func(dir string) *NetIface {
		return NewNetIface(func(i *NetIface, m *msg.Msg) error {
			if t.trace != nil {
				*t.trace = append(*t.trace, r.Name+"/"+dir)
			}
			if i.Next == nil {
				return nil // end of path: swallow
			}
			return i.DeliverNext(m)
		})
	}
	s.SetIface(FWD, mk("fwd"))
	s.SetIface(BWD, mk("bwd"))
	s.Establish = func(s *Stage, a *attr.Attrs) error {
		if t.estLog != nil {
			*t.estLog = append(*t.estLog, r.Name)
		}
		return nil
	}
	s.Destroy = func(*Stage) {
		if t.onDestroy != nil {
			t.onDestroy(r)
		}
	}
	s.Fuse = t.fuse
	var next *NextHop
	if t.route != nil {
		next = t.route(r, enter, a)
	}
	return s, next, nil
}

func netService(name string, initAfter bool) ServiceSpec {
	return ServiceSpec{Name: name, Type: NetServiceType, InitAfterPeers: initAfter}
}

// buildChain makes a graph A-B-C where paths created at A run to C.
func buildChain(t *testing.T, trace *[]string, est *[]string) (*Graph, *Router) {
	t.Helper()
	g := NewGraph()
	var a, b, c *Router
	routeDown := func(to **Router) func(*Router, int, *attr.Attrs) *NextHop {
		return func(r *Router, enter int, at *attr.Attrs) *NextHop {
			if *to == nil {
				return nil
			}
			return &NextHop{Router: *to, Service: (*to).ServiceIndex("up")}
		}
	}
	a = g.Add("A", &testImpl{services: []ServiceSpec{netService("down", true)}, trace: trace, estLog: est, route: routeDown(&b)})
	b = g.Add("B", &testImpl{services: []ServiceSpec{netService("up", false), netService("down", true)}, trace: trace, estLog: est, route: routeDown(&c)})
	c = g.Add("C", &testImpl{services: []ServiceSpec{netService("up", false)}, trace: trace, estLog: est})
	g.MustConnect(a, "down", b, "up")
	g.MustConnect(b, "down", c, "up")
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	return g, a
}

func TestIfaceTypeInheritance(t *testing.T) {
	root := NewIfaceType("net", nil)
	mid := NewIfaceType("reliable-net", root)
	leaf := NewIfaceType("ordered-reliable-net", mid)
	if !leaf.ConformsTo(root) || !leaf.ConformsTo(mid) || !leaf.ConformsTo(leaf) {
		t.Fatal("subtype does not conform to ancestors")
	}
	if root.ConformsTo(leaf) {
		t.Fatal("supertype conforms to subtype")
	}
	other := NewIfaceType("file", nil)
	if leaf.ConformsTo(other) {
		t.Fatal("unrelated types conform")
	}
}

func TestServiceTypeCanConnect(t *testing.T) {
	net := NewIfaceType("net", nil)
	spec := NewIfaceType("special-net", net)
	sym := &ServiceType{Name: "net", Provides: net, Requires: net}
	providesSpecific := &ServiceType{Name: "snet", Provides: spec, Requires: net}
	requiresSpecific := &ServiceType{Name: "rnet", Provides: net, Requires: spec}
	if !sym.CanConnect(sym) {
		t.Fatal("symmetric type cannot self-connect")
	}
	if !providesSpecific.CanConnect(sym) || !sym.CanConnect(providesSpecific) {
		t.Fatal("more specific provider rejected")
	}
	if requiresSpecific.CanConnect(sym) {
		t.Fatal("unmet specific requirement accepted")
	}
}

func TestConnectTypeMismatch(t *testing.T) {
	g := NewGraph()
	file := &ServiceType{Name: "file", Provides: NewIfaceType("file", nil), Requires: NewIfaceType("file", nil)}
	a := g.Add("A", &testImpl{services: []ServiceSpec{netService("down", false)}})
	b := g.Add("B", &testImpl{services: []ServiceSpec{{Name: "up", Type: file}}})
	if err := g.Connect(a, "down", b, "up"); err == nil {
		t.Fatal("incompatible service types connected")
	}
}

func TestDuplicateRouterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name accepted")
		}
	}()
	g := NewGraph()
	g.Add("X", &testImpl{})
	g.Add("X", &testImpl{})
}

func TestInitOrderRespectsMarkers(t *testing.T) {
	var log []string
	g := NewGraph()
	// A's "down" has the marker, so B must init before A; B's "down" has
	// the marker, so C before B.
	a := g.Add("A", &testImpl{services: []ServiceSpec{netService("down", true)}, initLog: &log})
	b := g.Add("B", &testImpl{services: []ServiceSpec{netService("up", false), netService("down", true)}, initLog: &log})
	c := g.Add("C", &testImpl{services: []ServiceSpec{netService("up", false)}, initLog: &log})
	g.MustConnect(a, "down", b, "up")
	g.MustConnect(b, "down", c, "up")
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	want := []string{"C", "B", "A"}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("init order %v, want %v", log, want)
		}
	}
}

func TestInitCycleRejected(t *testing.T) {
	g := NewGraph()
	a := g.Add("A", &testImpl{services: []ServiceSpec{netService("down", true), netService("up", false)}})
	b := g.Add("B", &testImpl{services: []ServiceSpec{netService("up", false), netService("down", true)}})
	g.MustConnect(a, "down", b, "up")
	g.MustConnect(b, "down", a, "up")
	if err := g.Build(); err == nil {
		t.Fatal("cyclic init dependency accepted")
	}
}

func TestCyclicGraphWithoutMarkersAllowed(t *testing.T) {
	// §3.1: cyclic dependencies are admissible as long as a partial init
	// order exists (markers only on one side).
	g := NewGraph()
	a := g.Add("A", &testImpl{services: []ServiceSpec{netService("down", true), netService("up", false)}})
	b := g.Add("B", &testImpl{services: []ServiceSpec{netService("up", false), netService("down", false)}})
	g.MustConnect(a, "down", b, "up")
	g.MustConnect(b, "down", a, "up")
	if err := g.Build(); err != nil {
		t.Fatalf("acyclic-markers cyclic graph rejected: %v", err)
	}
}

func TestInitErrorPropagates(t *testing.T) {
	g := NewGraph()
	g.Add("A", &testImpl{services: []ServiceSpec{netService("down", false)}, initErr: errors.New("boom")})
	if err := g.Build(); err == nil {
		t.Fatal("init error swallowed")
	}
}

func TestCreatePathStageSequence(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	p, err := g.CreatePath(a, attr.New())
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("path length %d, want 3", p.Len())
	}
	names := []string{"A", "B", "C"}
	for i, s := range p.Stages() {
		if s.Router.Name != names[i] {
			t.Fatalf("stage %d is %s, want %s", i, s.Router.Name, names[i])
		}
	}
	if p.End[0].Router.Name != "A" || p.End[1].Router.Name != "C" {
		t.Fatal("End stages wrong")
	}
	if p.PID == 0 {
		t.Fatal("PID not assigned")
	}
}

func TestEstablishRunsInCreationOrder(t *testing.T) {
	var est []string
	g, a := buildChain(t, nil, &est)
	if _, err := g.CreatePath(a, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "B", "C"}
	if len(est) != 3 {
		t.Fatalf("establish log %v", est)
	}
	for i := range want {
		if est[i] != want[i] {
			t.Fatalf("establish order %v, want %v", est, want)
		}
	}
}

func TestInjectFWDTraversal(t *testing.T) {
	var trace []string
	g, a := buildChain(t, &trace, nil)
	p, err := g.CreatePath(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Inject(FWD, msg.New([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	want := []string{"A/fwd", "B/fwd", "C/fwd"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	if p.Msgs[FWD] != 1 {
		t.Fatalf("Msgs[FWD] = %d", p.Msgs[FWD])
	}
}

func TestInjectBWDTraversal(t *testing.T) {
	var trace []string
	g, a := buildChain(t, &trace, nil)
	p, err := g.CreatePath(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Inject(BWD, msg.New([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	want := []string{"C/bwd", "B/bwd", "A/bwd"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
}

func TestTurnAround(t *testing.T) {
	// B turns FWD messages around via DeliverBack: expect A/fwd B/fwd A/bwd.
	var trace []string
	g := NewGraph()
	var b, c *Router
	a := g.Add("A", &testImpl{services: []ServiceSpec{netService("down", false)}, trace: &trace,
		route: func(r *Router, enter int, at *attr.Attrs) *NextHop {
			return &NextHop{Router: b, Service: b.ServiceIndex("up")}
		}})
	turn := &testImpl{services: []ServiceSpec{netService("up", false), netService("down", false)}, trace: &trace}
	b = g.Add("B", turn)
	c = g.Add("C", &testImpl{services: []ServiceSpec{netService("up", false)}, trace: &trace})
	turn.route = func(r *Router, enter int, at *attr.Attrs) *NextHop {
		return &NextHop{Router: c, Service: c.ServiceIndex("up")}
	}
	g.MustConnect(a, "down", b, "up")
	g.MustConnect(b, "down", c, "up")
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	p, err := g.CreatePath(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Replace B's FWD deliver with a turn-around.
	bi := p.Stages()[1].End[FWD].(*NetIface)
	bi.Deliver = func(i *NetIface, m *msg.Msg) error {
		trace = append(trace, "B/turn")
		return i.DeliverBack(m)
	}
	if err := p.Inject(FWD, msg.New(nil)); err != nil {
		t.Fatal(err)
	}
	want := []string{"A/fwd", "B/turn", "A/bwd"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
}

func TestCreateStageErrorDestroysEarlierStages(t *testing.T) {
	var destroyed []string
	g := NewGraph()
	var b *Router
	a := g.Add("A", &testImpl{
		services:  []ServiceSpec{netService("down", false)},
		onDestroy: func(r *Router) { destroyed = append(destroyed, r.Name) },
		route: func(r *Router, enter int, at *attr.Attrs) *NextHop {
			return &NextHop{Router: b, Service: b.ServiceIndex("up")}
		}})
	b = g.Add("B", &testImpl{services: []ServiceSpec{netService("up", false)}, stageErr: errors.New("weak invariants")})
	g.MustConnect(a, "down", b, "up")
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreatePath(a, nil); err == nil {
		t.Fatal("createStage error swallowed")
	}
	if len(destroyed) != 1 || destroyed[0] != "A" {
		t.Fatalf("destroyed %v, want [A]", destroyed)
	}
}

func TestRoutingCycleDetected(t *testing.T) {
	g := NewGraph()
	var a *Router
	a = g.Add("A", &testImpl{services: []ServiceSpec{netService("down", false), netService("up", false)},
		route: func(r *Router, enter int, at *attr.Attrs) *NextHop {
			return &NextHop{Router: a, Service: a.ServiceIndex("up")}
		}})
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreatePath(a, nil); err == nil {
		t.Fatal("unbounded path creation not detected")
	}
}

func TestPathDelete(t *testing.T) {
	var destroyed []string
	g := NewGraph()
	a := g.Add("A", &testImpl{services: []ServiceSpec{netService("down", false)},
		onDestroy: func(r *Router) { destroyed = append(destroyed, r.Name) }})
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	p, err := g.CreatePath(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Delete()
	if !p.Dead() {
		t.Fatal("path not dead after Delete")
	}
	if len(destroyed) != 1 {
		t.Fatalf("destroy ran %d times", len(destroyed))
	}
	p.Delete() // idempotent
	if len(destroyed) != 1 {
		t.Fatal("Delete not idempotent")
	}
	if err := p.Inject(FWD, msg.New(nil)); err != ErrPathDead {
		t.Fatalf("Inject on dead path err = %v", err)
	}
}

func TestQueueLenAttribute(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	p, err := g.CreatePath(a, attr.New().Set(attr.QueueLen, 128))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range p.Q {
		if q.Max() != 128 {
			t.Fatalf("queue %d max %d, want 128", i, q.Max())
		}
	}
}

func TestMemoryLimitAbortsCreation(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	// Footprint of a 3-stage path with 4 default queues far exceeds 10.
	if _, err := g.CreatePath(a, attr.New().Set(attr.MemLimit, 10)); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("err = %v, want ErrMemLimit", err)
	}
}

func TestChargeMemory(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	p, err := g.CreatePath(a, attr.New().Set(attr.MemLimit, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	base := p.MemoryBytes()
	if base <= 0 {
		t.Fatal("no base footprint charged")
	}
	if err := p.ChargeMemory(1 << 19); err != nil {
		t.Fatal(err)
	}
	if err := p.ChargeMemory(1 << 19); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("over-limit charge err = %v", err)
	}
	p.ChargeMemory(-(1 << 19))
	if p.MemoryBytes() != base {
		t.Fatal("release not accounted")
	}
}

func TestTransformationRuleAppliedOnce(t *testing.T) {
	var trace []string
	applied := 0
	g, a := func() (*Graph, *Router) {
		g := NewGraph()
		var b *Router
		a := g.Add("A", &testImpl{services: []ServiceSpec{netService("down", false)}, trace: &trace,
			route: func(r *Router, enter int, at *attr.Attrs) *NextHop {
				return &NextHop{Router: b, Service: b.ServiceIndex("up")}
			}})
		b = g.Add("B", &testImpl{services: []ServiceSpec{netService("up", false)}, trace: &trace})
		g.MustConnect(a, "down", b, "up")
		g.AddRule(Rule{
			Name:  "fuse-A-B",
			Guard: func(p *Path) bool { return p.HasSequence("A", "B") },
			Transform: func(p *Path) error {
				applied++
				// Replace A's FWD deliver with a fused version that
				// bypasses B, the ILP pattern of §4.1.
				ai := p.Stages()[0].End[FWD].(*NetIface)
				ai.Deliver = func(i *NetIface, m *msg.Msg) error {
					trace = append(trace, "A+B/fused")
					return nil
				}
				return nil
			},
		})
		if err := g.Build(); err != nil {
			t.Fatal(err)
		}
		return g, a
	}()
	p, err := g.CreatePath(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("rule applied %d times, want 1", applied)
	}
	if !p.Transformed("fuse-A-B") {
		t.Fatal("Transformed not recorded")
	}
	if err := p.Inject(FWD, msg.New(nil)); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(trace) != fmt.Sprint([]string{"A+B/fused"}) {
		t.Fatalf("trace %v, want fused only", trace)
	}
}

// TestInterposeAcrossResplice: an interposer hooks every stage of a live
// path once, at once, in registration order. After a Resplice it hooks only
// the rebuilt stages, and only once they have fused, so a fused Deliver is
// wrapped rather than replacing the wrapper; a retained stage neither fuses
// again nor loses its wrappers. An interposer a rule registered during
// CreatePath's phase 4 reaches the rebuilt stages too.
func TestInterposeAcrossResplice(t *testing.T) {
	var trace, hooked []string
	g, a := buildChain(t, &trace, nil)
	for _, name := range []string{"B", "C"} {
		r, _ := g.Router(name)
		r.Impl.(*testImpl).fuse = func(s *Stage) {
			s.End[FWD].(*NetIface).Deliver = func(ni *NetIface, m *msg.Msg) error {
				trace = append(trace, name+"/fused")
				if ni.Next == nil {
					return nil
				}
				return ni.DeliverNext(m)
			}
		}
	}
	hook := func(name string) func(int, *Stage) {
		return func(i int, s *Stage) {
			hooked = append(hooked, fmt.Sprintf("%s:%d%s", name, i, s.Router.Name))
			ni := s.End[FWD].(*NetIface)
			inner := ni.Deliver
			ni.Deliver = func(ni *NetIface, m *msg.Msg) error {
				trace = append(trace, name+">"+s.Router.Name)
				return inner(ni, m)
			}
		}
	}
	g.AddRule(Rule{
		Name:      "rule",
		Guard:     func(*Path) bool { return true },
		Transform: func(p *Path) error { p.Interpose(hook("rule")); return nil },
	})
	p, err := g.CreatePath(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Interpose(hook("x"))
	if want := "[rule:0A rule:1B rule:2C x:0A x:1B x:2C]"; fmt.Sprint(hooked) != want {
		t.Fatalf("hooked %v, want %s", hooked, want)
	}

	hooked = nil
	if err := p.Resplice("A", nil); err != nil {
		t.Fatal(err)
	}
	if want := "[rule:1B rule:2C x:1B x:2C]"; fmt.Sprint(hooked) != want {
		t.Fatalf("resplice hooked %v, want %s", hooked, want)
	}
	hooked = nil
	if err := p.Resplice("B", nil); err != nil {
		t.Fatal(err)
	}
	if want := "[rule:2C x:2C]"; fmt.Sprint(hooked) != want {
		t.Fatalf("second resplice hooked %v, want %s", hooked, want)
	}
	if err := p.Inject(FWD, msg.New(nil)); err != nil {
		t.Fatal(err)
	}
	if want := "[x>A rule>A A/fwd x>B rule>B B/fused x>C rule>C C/fused]"; fmt.Sprint(trace) != want {
		t.Fatalf("trace %v, want %s", trace, want)
	}
}

func TestRuleGuardFalseNotApplied(t *testing.T) {
	g := NewGraph()
	a := g.Add("A", &testImpl{services: []ServiceSpec{netService("down", false)}})
	g.AddRule(Rule{
		Name:      "never",
		Guard:     func(p *Path) bool { return p.HasSequence("X", "Y") },
		Transform: func(p *Path) error { t.Fatal("transform ran"); return nil },
	})
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreatePath(a, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasSequence(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	p, _ := g.CreatePath(a, nil)
	cases := []struct {
		names []string
		want  bool
	}{
		{[]string{"A"}, true},
		{[]string{"A", "B"}, true},
		{[]string{"B", "C"}, true},
		{[]string{"A", "B", "C"}, true},
		{[]string{"A", "C"}, false},
		{[]string{"C", "B"}, false},
		{nil, true},
	}
	for _, c := range cases {
		if got := p.HasSequence(c.names...); got != c.want {
			t.Fatalf("HasSequence(%v) = %v, want %v", c.names, got, c.want)
		}
	}
}

func TestStageOf(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	p, _ := g.CreatePath(a, nil)
	if s := p.StageOf("B"); s == nil || s.Router.Name != "B" {
		t.Fatalf("StageOf(B) = %v", s)
	}
	if s := p.StageOf("Z"); s != nil {
		t.Fatal("StageOf(Z) found a stage")
	}
}

func TestMultiplePathsSameRouterPair(t *testing.T) {
	// §2.1: a device pair can be connected by any number of paths.
	g, a := buildChain(t, nil, nil)
	p1, err1 := g.CreatePath(a, nil)
	p2, err2 := g.CreatePath(a, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if p1.PID == p2.PID {
		t.Fatal("paths share a PID")
	}
	if p1.Stages()[0] == p2.Stages()[0] {
		t.Fatal("paths share stages")
	}
}

func TestCPUAccounting(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	p, _ := g.CreatePath(a, nil)
	p.AddCPU(800)
	if p.ExecEWMA() != 800 {
		t.Fatalf("first EWMA = %v, want seed 800", p.ExecEWMA())
	}
	p.AddCPU(1600)
	if p.ExecEWMA() != 900 { // 800 + (1600-800)/8
		t.Fatalf("EWMA = %v, want 900", p.ExecEWMA())
	}
	if p.CPUTime() != 2400 || p.Executions() != 2 {
		t.Fatalf("cpu=%v n=%d", p.CPUTime(), p.Executions())
	}
}

func TestQueueBasics(t *testing.T) {
	q := NewQueue(2)
	if !q.Empty() || q.Full() || q.Max() != 2 || q.Free() != 2 {
		t.Fatal("fresh queue state wrong")
	}
	if !q.Enqueue(1) || !q.Enqueue(2) {
		t.Fatal("enqueue into free queue failed")
	}
	if q.Enqueue(3) {
		t.Fatal("enqueue into full queue succeeded")
	}
	if q.Dropped() != 1 || q.Enqueued() != 2 {
		t.Fatalf("drops=%d enq=%d", q.Dropped(), q.Enqueued())
	}
	if q.Peek().(int) != 1 {
		t.Fatal("Peek wrong")
	}
	if q.Dequeue().(int) != 1 || q.Dequeue().(int) != 2 {
		t.Fatal("FIFO violated")
	}
	if q.Dequeue() != nil {
		t.Fatal("Dequeue on empty returned item")
	}
}

func TestQueueWraparound(t *testing.T) {
	q := NewQueue(3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !q.Enqueue(round*10 + i) {
				t.Fatal("enqueue failed")
			}
		}
		for i := 0; i < 3; i++ {
			if got := q.Dequeue().(int); got != round*10+i {
				t.Fatalf("round %d got %d", round, got)
			}
		}
	}
}

func TestQueueHooks(t *testing.T) {
	q := NewQueue(4)
	wakes, drains := 0, 0
	q.NotEmpty = func() { wakes++ }
	q.Drained = func() { drains++ }
	q.Enqueue(1) // empty -> 1: wake
	q.Enqueue(2) // no wake
	q.Dequeue()
	q.Dequeue()  // -> empty: drain
	q.Enqueue(3) // wake again
	if wakes != 2 || drains != 1 {
		t.Fatalf("wakes=%d drains=%d", wakes, drains)
	}
}

func TestQueueIndexHelpers(t *testing.T) {
	if QIn(FWD) != QInFWD || QIn(BWD) != QInBWD || QOut(FWD) != QOutFWD || QOut(BWD) != QOutBWD {
		t.Fatal("queue index mapping wrong")
	}
	if FWD.Opposite() != BWD || BWD.Opposite() != FWD {
		t.Fatal("Opposite wrong")
	}
}

func TestPathString(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	p, _ := g.CreatePath(a, nil)
	want := fmt.Sprintf("path#%d[A→B→C]", p.PID)
	if p.String() != want {
		t.Fatalf("String = %q, want %q", p.String(), want)
	}
}

func TestAttrsClonedIntoPath(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	in := attr.New().Set(attr.PathName, "X")
	p, _ := g.CreatePath(a, in)
	in.Set(attr.PathName, "Y")
	if v, _ := p.Attrs.String(attr.PathName); v != "X" {
		t.Fatalf("path attrs aliased creation attrs: %q", v)
	}
}

// Property: for any chain length 1..20, path creation yields exactly that
// many stages with a fully linked interface chain in both directions,
// establish runs once per stage in creation order, and deletion destroys in
// reverse order.
func TestPropertyChainsOfAnyLength(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		g := NewGraph()
		var est, destroyed []string
		routers := make([]*Router, n)
		for i := 0; i < n; i++ {
			i := i
			name := fmt.Sprintf("R%02d", i)
			impl := &testImpl{estLog: &est}
			impl.onDestroy = func(r *Router) { destroyed = append(destroyed, r.Name) }
			if i < n-1 {
				impl.services = []ServiceSpec{netService("down", false)}
				if i > 0 {
					impl.services = append(impl.services, netService("up", false))
				}
				impl.route = func(r *Router, enter int, a *attr.Attrs) *NextHop {
					next := routers[i+1]
					return &NextHop{Router: next, Service: next.ServiceIndex("up")}
				}
			} else if n > 1 {
				impl.services = []ServiceSpec{netService("up", false)}
			}
			routers[i] = g.Add(name, impl)
		}
		for i := 0; i+1 < n; i++ {
			g.MustConnect(routers[i], "down", routers[i+1], "up")
		}
		if err := g.Build(); err != nil {
			return false
		}
		p, err := g.CreatePath(routers[0], nil)
		if err != nil || p.Len() != n {
			return false
		}
		// Establish order == creation order.
		if len(est) != n {
			return false
		}
		for i := range est {
			if est[i] != routers[i].Name {
				return false
			}
		}
		// FWD chain covers all n stages; BWD likewise.
		count := 0
		for iface := p.End[0].End[FWD]; iface != nil; iface = iface.Base().Next {
			count++
		}
		if count != n {
			return false
		}
		count = 0
		for iface := p.End[1].End[BWD]; iface != nil; iface = iface.Base().Next {
			count++
		}
		if count != n {
			return false
		}
		// Deletion destroys in reverse creation order.
		p.Delete()
		if len(destroyed) != n {
			return false
		}
		for i := range destroyed {
			if destroyed[i] != routers[n-1-i].Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDropCauses(t *testing.T) {
	q := NewQueue(2)
	var log []string
	q.OnDrop = func(item any, cause DropCause) {
		log = append(log, fmt.Sprintf("%v:%s", item, cause))
	}
	q.Enqueue(1)
	q.Enqueue(2)
	if q.Enqueue(3) {
		t.Fatal("enqueue on full queue accepted")
	}
	if q.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", q.Dropped())
	}
	evicted := q.SetMax(1) // oldest out
	if fmt.Sprint(evicted) != "[1]" {
		t.Fatalf("SetMax evicted %v, want [1]", evicted)
	}
	drained := q.Drain()
	if fmt.Sprint(drained) != "[2]" {
		t.Fatalf("Drain returned %v, want [2]", drained)
	}
	want := []string{"3:tail", "1:shed", "2:shed"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("OnDrop log %v, want %v", log, want)
	}
	if q.Shed() != 2 {
		t.Fatalf("Shed = %d, want 2", q.Shed())
	}
	// Conservation: everything that entered was serviced, shed, or queued.
	if q.Enqueued() != q.Dequeued()+q.Shed()+int64(q.Len()) {
		t.Fatalf("accounting broken: enq=%d deq=%d shed=%d len=%d",
			q.Enqueued(), q.Dequeued(), q.Shed(), q.Len())
	}
}

func TestDestroyIdempotentAndDrains(t *testing.T) {
	var trace []string
	g, a := buildChain(t, &trace, nil)
	p, err := g.CreatePath(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	freed := 0
	p.Q[QInFWD].Enqueue(&countingFreer{&freed})
	p.Q[QOutBWD].Enqueue(&countingFreer{&freed})
	hooks := 0
	p.AddDestroyHook(func(*Path) { hooks++ })
	p.Destroy()
	if !p.Dead() {
		t.Fatal("path not dead after Destroy")
	}
	if freed != 2 {
		t.Fatalf("queued refs freed = %d, want 2", freed)
	}
	if hooks != 1 {
		t.Fatalf("destroy hooks ran %d times, want 1", hooks)
	}
	p.Destroy() // second call is a no-op
	if freed != 2 || hooks != 1 {
		t.Fatalf("Destroy not idempotent: freed=%d hooks=%d", freed, hooks)
	}
	for qi, q := range p.Q {
		if q != nil && q.Len() != 0 {
			t.Fatalf("q[%d] still holds %d items", qi, q.Len())
		}
	}
	if err := p.Inject(FWD, msg.New([]byte("x"))); err != ErrPathDead {
		t.Fatalf("inject on dead path err = %v, want ErrPathDead", err)
	}
}

type countingFreer struct{ n *int }

func (c *countingFreer) Free() { *c.n++ }
