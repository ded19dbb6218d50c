package chaos

import (
	"testing"
	"time"

	"scout/internal/admission"
	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/fbuf"
	"scout/internal/msg"
	"scout/internal/sim"
)

// costImpl is a single-stage router whose deliver function charges a fixed
// CPU cost against the path — the minimal victim for the CPU faults.
type costImpl struct {
	cost time.Duration
	path **core.Path // set by the test after CreatePath
}

func (costImpl) Services() []core.ServiceSpec { return nil }
func (costImpl) Init(*core.Router) error      { return nil }
func (c costImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	s := &core.Stage{}
	deliver := func(i *core.NetIface, m *msg.Msg) error {
		if p := *c.path; p != nil {
			p.ChargeExec(c.cost)
		}
		return nil
	}
	s.SetIface(core.FWD, core.NewNetIface(deliver))
	s.SetIface(core.BWD, core.NewNetIface(deliver))
	return s, nil, nil
}

// newVictim builds a one-stage path on router "R" that charges cost per
// delivery.
func newVictim(t *testing.T, cost time.Duration) *core.Path {
	t.Helper()
	var p *core.Path
	g := core.NewGraph()
	r := g.Add("R", costImpl{cost: cost, path: &p})
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	p, err := g.CreatePath(r, attr.New())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInflateStageCPUWindowed(t *testing.T) {
	eng := sim.New(1)
	inj := New(eng)
	p := newVictim(t, time.Millisecond)

	if inj.InflateStageCPU(p, "NOPE", 3, 0, sim.Time(time.Second)) {
		t.Fatal("inflate on missing stage reported true")
	}
	if inj.InflateStageCPU(p, "R", 1.0, 0, sim.Time(time.Second)) {
		t.Fatal("factor <= 1 should be refused")
	}
	if !inj.InflateStageCPU(p, "R", 3, sim.Time(10*time.Millisecond), sim.Time(20*time.Millisecond)) {
		t.Fatal("inflate on real stage reported false")
	}

	// One probe delivery before, inside, and after the fault window.
	probes := map[time.Duration]*time.Duration{}
	for _, at := range []time.Duration{5 * time.Millisecond, 15 * time.Millisecond, 25 * time.Millisecond} {
		at := at
		d := new(time.Duration)
		probes[at] = d
		eng.At(sim.Time(at), func() {
			before := p.ExecCost()
			if err := p.Inject(core.FWD, msg.New([]byte("x"))); err != nil {
				t.Errorf("inject: %v", err)
			}
			*d = p.ExecCost() - before
		})
	}
	eng.Run()

	if got := *probes[5*time.Millisecond]; got != time.Millisecond {
		t.Fatalf("before window charged %v, want 1ms", got)
	}
	if got := *probes[15*time.Millisecond]; got != 3*time.Millisecond {
		t.Fatalf("inside window charged %v, want 3ms (factor 3)", got)
	}
	if got := *probes[25*time.Millisecond]; got != time.Millisecond {
		t.Fatalf("after window charged %v, want 1ms", got)
	}
	st := inj.Stats()
	if st.InflatedCalls != 1 || st.InflatedCPU != 2*time.Millisecond {
		t.Fatalf("stats = %+v, want 1 inflated call, 2ms extra", st)
	}
}

func TestStallStageWindowed(t *testing.T) {
	eng := sim.New(1)
	inj := New(eng)
	p := newVictim(t, time.Millisecond)

	if inj.StallStage(p, "R", 0, 0, sim.Time(time.Second)) {
		t.Fatal("zero stall should be refused")
	}
	if !inj.StallStage(p, "R", 7*time.Millisecond, sim.Time(10*time.Millisecond), sim.Time(20*time.Millisecond)) {
		t.Fatal("stall on real stage reported false")
	}
	var in, out time.Duration
	eng.At(sim.Time(15*time.Millisecond), func() {
		before := p.ExecCost()
		p.Inject(core.FWD, msg.New([]byte("x")))
		in = p.ExecCost() - before
	})
	eng.At(sim.Time(30*time.Millisecond), func() {
		before := p.ExecCost()
		p.Inject(core.FWD, msg.New([]byte("x")))
		out = p.ExecCost() - before
	})
	eng.Run()
	if in != 8*time.Millisecond {
		t.Fatalf("stalled delivery charged %v, want 8ms (1ms + 7ms stall)", in)
	}
	if out != time.Millisecond {
		t.Fatalf("post-window delivery charged %v, want 1ms", out)
	}
	if st := inj.Stats(); st.StalledCalls != 1 {
		t.Fatalf("StalledCalls = %d, want 1", st.StalledCalls)
	}
}

func TestSqueezePoolRestoresAndAudits(t *testing.T) {
	eng := sim.New(1)
	inj := New(eng)
	pool := fbuf.NewPool(64, 0, 0, 4)

	live, err := pool.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	inj.SqueezePool(pool, 1, 10*time.Millisecond)
	if pool.Limit() != 1 {
		t.Fatalf("limit = %d during squeeze, want 1", pool.Limit())
	}
	// The live buffer already fills the squeezed limit: Gets must fail with
	// the typed error and count as exhaustions, but the live buffer survives.
	if _, err := pool.Get(64); err != fbuf.ErrExhausted {
		t.Fatalf("Get under squeeze err = %v, want ErrExhausted", err)
	}
	if s := pool.Stats(); s.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", s.Exhausted)
	}
	if vs := AuditPool("pool", pool); len(vs) != 0 {
		t.Fatalf("audit during squeeze: %v", vs)
	}
	eng.Run() // restore fires
	if pool.Limit() != 4 {
		t.Fatalf("limit = %d after squeeze, want 4 restored", pool.Limit())
	}
	if _, err := pool.Get(64); err != nil {
		t.Fatalf("Get after restore: %v", err)
	}
	if st := inj.Stats(); st.PoolSqueezes != 1 {
		t.Fatalf("PoolSqueezes = %d, want 1", st.PoolSqueezes)
	}
	live.Free()
}

func TestSqueezeQueueEvictsAndFrees(t *testing.T) {
	eng := sim.New(1)
	inj := New(eng)
	pool := fbuf.NewPool(64, 0, 0, 0)
	q := core.NewQueue(4)

	var drops []core.DropCause
	q.OnDrop = func(item any, cause core.DropCause) { drops = append(drops, cause) }
	for i := 0; i < 4; i++ {
		m, err := pool.Get(64)
		if err != nil {
			t.Fatal(err)
		}
		q.Enqueue(m)
	}
	inj.SqueezeQueue(q, 2, 10*time.Millisecond)
	if q.Max() != 2 || q.Len() != 2 {
		t.Fatalf("max=%d len=%d during squeeze, want 2/2", q.Max(), q.Len())
	}
	if q.Shed() != 2 {
		t.Fatalf("shed = %d, want 2 evictions", q.Shed())
	}
	if len(drops) != 2 || drops[0] != core.DropShed || drops[1] != core.DropShed {
		t.Fatalf("OnDrop causes = %v, want two DropShed", drops)
	}
	// The injector freed the evicted messages' buffers.
	if s := pool.Stats(); s.Outstanding != 2 {
		t.Fatalf("outstanding = %d after eviction, want 2 (evictees freed)", s.Outstanding)
	}
	if vs := AuditQueue("q", q); len(vs) != 0 {
		t.Fatalf("queue audit: %v", vs)
	}
	eng.Run() // restore fires
	if q.Max() != 4 {
		t.Fatalf("max = %d after squeeze, want 4 restored", q.Max())
	}
	for q.Len() > 0 {
		q.Dequeue().(*msg.Msg).Free()
	}
	if vs := AuditPoolDrained("pool", pool); len(vs) != 0 {
		t.Fatalf("pool not drained: %v", vs)
	}
	if st := inj.Stats(); st.QueueSqueezes != 1 {
		t.Fatalf("QueueSqueezes = %d, want 1", st.QueueSqueezes)
	}
}

func TestPoisonModelDeterministicAndRejected(t *testing.T) {
	feed := func(seed int64) (rejectable int, m *admission.Model) {
		eng := sim.New(seed)
		inj := New(eng)
		m = &admission.Model{}
		for bits := 1000.0; bits <= 50000; bits += 1000 {
			m.Observe(bits, time.Duration(300*bits))
		}
		return inj.PoisonModel(m, 60), m
	}
	r1, m1 := feed(7)
	r2, m2 := feed(7)
	if r1 != r2 {
		t.Fatalf("same seed gave different rejectable counts: %d vs %d", r1, r2)
	}
	if r1 == 0 || r1 == 60 {
		t.Fatalf("rejectable = %d, want a mix of poison kinds", r1)
	}
	if m1.Rejected() != int64(r1) {
		t.Fatalf("Rejected() = %d, want %d (every non-finite observation refused)", m1.Rejected(), r1)
	}
	if m1.Slope() != m2.Slope() {
		t.Fatalf("same seed gave different poisoned fits: %v vs %v", m1.Slope(), m2.Slope())
	}
	// The fit survives in the sense of staying finite and usable.
	if s := m1.Slope(); s != s || s-s != 0 { // NaN/Inf check without math import
		t.Fatalf("poisoned slope not finite: %v", s)
	}
}

func TestAuditsCatchViolations(t *testing.T) {
	pool := fbuf.NewPool(64, 0, 0, 0)
	m, err := pool.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	if vs := AuditPool("pool", pool); len(vs) != 0 {
		t.Fatalf("healthy pool flagged: %v", vs)
	}
	if vs := AuditPoolDrained("pool", pool); len(vs) != 1 {
		t.Fatalf("outstanding buffer not flagged by drained audit: %v", vs)
	}
	m.Free()
	if vs := AuditPoolDrained("pool", pool); len(vs) != 0 {
		t.Fatalf("drained pool flagged: %v", vs)
	}
}

func TestDestroyDrainsPathRefs(t *testing.T) {
	p := newVictim(t, 0)
	pool := fbuf.NewPool(64, 0, 0, 0)
	for i := 0; i < 3; i++ {
		m, err := pool.Get(64)
		if err != nil {
			t.Fatal(err)
		}
		p.Q[core.QInFWD].Enqueue(m)
	}
	hookRuns := 0
	p.AddDestroyHook(func(*core.Path) { hookRuns++ })
	p.Destroy()
	p.Destroy() // idempotent
	if hookRuns != 1 {
		t.Fatalf("destroy hook ran %d times, want 1", hookRuns)
	}
	if vs := AuditPoolDrained("pool", pool); len(vs) != 0 {
		t.Fatalf("Destroy leaked fbuf refs: %v", vs)
	}
	if vs := AuditPath(p); len(vs) != 0 {
		t.Fatalf("destroyed path audit: %v", vs)
	}
}
