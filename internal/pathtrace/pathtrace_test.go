package pathtrace_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/pathtrace"
	"scout/internal/sim"
)

// chainImpl builds pass-through NetIface stages that charge a fixed
// execution cost per traversal, mirroring how real routers call ChargeExec.
type chainImpl struct {
	services []core.ServiceSpec
	cost     time.Duration
	next     **core.Router
}

func (c *chainImpl) Services() []core.ServiceSpec { return c.services }
func (c *chainImpl) Init(*core.Router) error      { return nil }

func (c *chainImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	s := &core.Stage{}
	mk := func() *core.NetIface {
		return core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
			i.Base().Stage.Path.ChargeExec(c.cost)
			if i.Next == nil {
				return nil
			}
			return i.DeliverNext(m)
		})
	}
	s.SetIface(core.FWD, mk())
	s.SetIface(core.BWD, mk())
	var next *core.NextHop
	if c.next != nil && *c.next != nil {
		next = &core.NextHop{Router: *c.next, Service: (*c.next).ServiceIndex("up")}
	}
	return s, next, nil
}

func netSvc(name string, after bool) core.ServiceSpec {
	return core.ServiceSpec{Name: name, Type: core.NetServiceType, InitAfterPeers: after}
}

// buildChain makes a graph A→B→C with per-stage costs 10/20/30µs and
// returns a created path.
func buildChain(t *testing.T) *core.Path {
	t.Helper()
	g := core.NewGraph()
	var b, c *core.Router
	a := g.Add("A", &chainImpl{services: []core.ServiceSpec{netSvc("down", true)}, cost: 10 * time.Microsecond, next: &b})
	b = g.Add("B", &chainImpl{services: []core.ServiceSpec{netSvc("up", false), netSvc("down", true)}, cost: 20 * time.Microsecond, next: &c})
	c = g.Add("C", &chainImpl{services: []core.ServiceSpec{netSvc("up", false)}, cost: 30 * time.Microsecond})
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	p, err := g.CreatePath(a, attr.New())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTracer(seed int64) (*sim.Engine, *pathtrace.Tracer) {
	eng := sim.New(seed)
	tr := pathtrace.New(eng, pathtrace.Options{})
	tr.SetEnabled(true)
	return eng, tr
}

func TestStageSelfAndCumAttribution(t *testing.T) {
	p := buildChain(t)
	_, tr := newTracer(1)
	tr.InstrumentPath(p, "chain")

	m := msg.New(make([]byte, 8))
	if err := p.Inject(core.FWD, m); err != nil {
		t.Fatal(err)
	}

	pi := tr.Path(p.PID)
	if pi == nil {
		t.Fatal("path not registered")
	}
	want := []struct {
		stage     string
		self, cum time.Duration
	}{
		{"A", 10 * time.Microsecond, 60 * time.Microsecond},
		{"B", 20 * time.Microsecond, 50 * time.Microsecond},
		{"C", 30 * time.Microsecond, 30 * time.Microsecond},
	}
	if len(pi.Stages) != len(want) {
		t.Fatalf("got %d stages, want %d", len(pi.Stages), len(want))
	}
	for i, w := range want {
		sm := pi.Stages[i]
		if sm.Stage != w.stage || sm.Execs != 1 || sm.SelfCPU != w.self || sm.CumCPU != w.cum {
			t.Errorf("stage %s: execs=%d self=%v cum=%v, want execs=1 self=%v cum=%v",
				sm.Stage, sm.Execs, sm.SelfCPU, sm.CumCPU, w.self, w.cum)
		}
	}
	// Span events must nest flame-graph style: each child starts at its
	// parent's start plus the parent's self cost so far.
	var spans []pathtrace.Event
	for _, ev := range tr.Events() {
		if ev.Kind == pathtrace.KindSpan {
			spans = append(spans, ev)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("got %d span events, want 3", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		parent, child := spans[i-1], spans[i]
		if child.TS < parent.TS || child.TS.Add(child.Dur) > parent.TS.Add(parent.Dur) {
			t.Errorf("span %s [%v +%v] does not nest in %s [%v +%v]",
				child.Name, child.TS, child.Dur, parent.Name, parent.TS, parent.Dur)
		}
	}
}

func TestQueueWaitDepthAndDrops(t *testing.T) {
	p := buildChain(t)
	eng, tr := newTracer(1)
	tr.InstrumentPath(p, "chain")

	q := p.Q[core.QInFWD]
	fill := q.Max()
	for i := 0; i < fill; i++ {
		q.Enqueue(msg.New(make([]byte, 1)))
	}
	if q.Enqueue(msg.New(make([]byte, 1))) {
		t.Fatal("enqueue into full queue succeeded")
	}
	eng.At(eng.Now().Add(time.Millisecond), func() {
		for q.Dequeue() != nil {
		}
	})
	eng.Run()

	qm := tr.Path(p.PID).Queues[core.QInFWD]
	if qm.Enqueued != int64(fill) || qm.Dequeued != int64(fill) || qm.Dropped != 1 {
		t.Fatalf("enq=%d deq=%d drop=%d, want %d/%d/1", qm.Enqueued, qm.Dequeued, qm.Dropped, fill, fill)
	}
	if qm.MaxDepth != fill {
		t.Fatalf("max depth %d, want %d", qm.MaxDepth, fill)
	}
	if qm.Wait.Count != int64(fill) || qm.Wait.Max != time.Millisecond || qm.Wait.Mean() != time.Millisecond {
		t.Fatalf("wait hist count=%d max=%v mean=%v, want %d/1ms/1ms",
			qm.Wait.Count, qm.Wait.Max, qm.Wait.Mean(), fill)
	}
}

func TestWireSpanFromTxStamps(t *testing.T) {
	p := buildChain(t)
	_, tr := newTracer(1)
	tr.InstrumentPath(p, "chain")

	m := msg.New(make([]byte, 100))
	m.TxStart, m.TxEnd = 1000, 9000
	p.Q[core.QInFWD].Enqueue(m)
	if m.Trace == 0 {
		t.Fatal("message not assigned a trace id")
	}
	pi := tr.Path(p.PID)
	if pi.Wire.Frames != 1 || pi.Wire.Airtime != 8*time.Microsecond {
		t.Fatalf("wire frames=%d airtime=%v, want 1/8µs", pi.Wire.Frames, pi.Wire.Airtime)
	}
	// Re-enqueueing the same message must not double-count the airtime.
	p.Q[core.QInFWD].Dequeue()
	p.Q[core.QInFWD].Enqueue(m)
	if pi.Wire.Frames != 1 {
		t.Fatalf("airtime double-counted: frames=%d", pi.Wire.Frames)
	}
}

func TestExecSpanStealAccounting(t *testing.T) {
	p := buildChain(t)
	_, tr := newTracer(1)
	tr.InstrumentPath(p, "chain")

	tr.ExecSpan(p.PID, "exec", 0, sim.Time(15*time.Microsecond), 10*time.Microsecond)
	pi := tr.Path(p.PID)
	if pi.Exec.Execs != 1 || pi.Exec.Charged != 10*time.Microsecond || pi.Exec.Steal() != 5*time.Microsecond {
		t.Fatalf("exec=%+v steal=%v, want 1 exec, 10µs charged, 5µs steal", pi.Exec, pi.Exec.Steal())
	}
}

// run drives an identical mini-scenario on a fresh world and returns both
// exports.
func runScenario(t *testing.T) (traceJSON, metricsJSON []byte) {
	t.Helper()
	p := buildChain(t)
	eng, tr := newTracer(7)
	tr.InstrumentPath(p, "chain")
	for i := 0; i < 5; i++ {
		m := msg.New(make([]byte, 64))
		m.TxStart = int64(eng.Now())
		m.TxEnd = m.TxStart + 5000
		p.Q[core.QInFWD].Enqueue(m)
		eng.At(eng.Now().Add(100*time.Microsecond), func() {
			mm := p.Q[core.QInFWD].Dequeue().(*msg.Msg)
			if err := p.Inject(core.FWD, mm); err != nil {
				t.Error(err)
			}
			tr.ExecSpan(p.PID, "exec", eng.Now(), eng.Now().Add(p.TakeExecCost()), 60*time.Microsecond)
		})
		eng.Run()
	}
	var tb, mb bytes.Buffer
	if err := tr.WriteTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMetricsJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestMergedTraceNamespacesAndSorts exercises the sharded-world export path:
// two independent worlds (each with its own graph, so both paths get PID 1)
// merge into one trace with namespaced PIDs and a globally time-sorted event
// stream, byte-identically across runs.
func TestMergedTraceNamespacesAndSorts(t *testing.T) {
	build := func(label string, delay time.Duration) *pathtrace.Tracer {
		p := buildChain(t)
		eng, tr := newTracer(7)
		tr.InstrumentPath(p, label)
		eng.At(sim.Time(delay), func() {
			if err := p.Inject(core.FWD, msg.New(make([]byte, 8))); err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		return tr
	}
	run := func() []byte {
		// Tracer order is the caller-fixed merge order; groupB's events are
		// earlier in virtual time, so the merge must actually sort.
		a := build("groupA", 100*time.Microsecond)
		b := build("groupB", 50*time.Microsecond)
		var buf bytes.Buffer
		if err := pathtrace.WriteMergedTrace(&buf, a, b); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	out1, out2 := run(), run()
	if !bytes.Equal(out1, out2) {
		t.Error("merged trace differs across identical runs")
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int64   `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out1, &tf); err != nil {
		t.Fatal(err)
	}
	pids := map[int64]bool{}
	lastTS := -1.0
	for _, ev := range tf.TraceEvents {
		pids[ev.PID] = true
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < lastTS {
			t.Fatalf("merged events not time-sorted: %v after %v", ev.TS, lastTS)
		}
		lastTS = ev.TS
	}
	if !pids[1] || !pids[1+int64(1)<<32] {
		t.Fatalf("merged trace missing namespaced PIDs (got %v)", pids)
	}
	doc := pathtrace.MergedMetricsDoc(build("groupA", time.Microsecond), build("groupB", time.Microsecond))
	if len(doc.Paths) != 2 || doc.Paths[0].PID != 1 || doc.Paths[1].PID != 1+int64(1)<<32 {
		t.Fatalf("merged metrics PIDs wrong: %+v", doc.Paths)
	}
}

func TestExportsAreDeterministic(t *testing.T) {
	t1, m1 := runScenario(t)
	t2, m2 := runScenario(t)
	if !bytes.Equal(t1, t2) {
		t.Error("trace JSON differs across identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics JSON differs across identical runs")
	}
	if len(t1) == 0 || len(m1) == 0 {
		t.Fatal("empty export")
	}
}

func TestRenderMetricsMentionsStages(t *testing.T) {
	p := buildChain(t)
	_, tr := newTracer(1)
	tr.InstrumentPath(p, "chain")
	m := msg.New(make([]byte, 8))
	if err := p.Inject(core.FWD, m); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	tr.WriteMetricsTable(&b)
	out := b.String()
	for _, want := range []string{"chain", "A", "B", "C", "in[FWD]", "SHARE"} {
		if !bytes.Contains(b.Bytes(), []byte(want)) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestEventBufferCapCountsLoss(t *testing.T) {
	p := buildChain(t)
	eng := sim.New(1)
	tr := pathtrace.New(eng, pathtrace.Options{MaxEvents: 4})
	tr.SetEnabled(true)
	tr.InstrumentPath(p, "chain")
	for i := 0; i < 10; i++ {
		p.Q[core.QInFWD].Enqueue(msg.New(make([]byte, 1)))
		p.Q[core.QInFWD].Dequeue()
	}
	if len(tr.Events()) != 4 {
		t.Fatalf("event buffer holds %d, want 4", len(tr.Events()))
	}
	if tr.EventsLost() != 16 {
		t.Fatalf("lost %d events, want 16", tr.EventsLost())
	}
	// Metrics must be unaffected by event loss.
	qm := tr.Path(p.PID).Queues[core.QInFWD]
	if qm.Enqueued != 10 || qm.Dequeued != 10 {
		t.Fatalf("metrics degraded under event loss: %+v", qm)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h pathtrace.Hist
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond) // bucket of 1024ns
	}
	h.Observe(time.Second)
	if h.Count != 101 || h.Max != time.Second {
		t.Fatalf("count=%d max=%v", h.Count, h.Max)
	}
	if p50 := h.Quantile(0.50); p50 > 2*time.Microsecond {
		t.Fatalf("p50=%v, want ≈1µs upper bound", p50)
	}
	if p999 := h.Quantile(0.999); p999 != time.Second {
		t.Fatalf("p99.9=%v, want 1s (clamped to max)", p999)
	}
	var empty pathtrace.Hist
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty hist quantile/mean not zero")
	}
}

// TestDisabledHotPathAllocates Nothing is the acceptance criterion's guard:
// with tracing disabled, queue operations and tracer entry points must not
// allocate on the hot path.
func TestDisabledHotPathAllocatesNothing(t *testing.T) {
	p := buildChain(t)
	eng := sim.New(1)
	tr := pathtrace.New(eng, pathtrace.Options{}) // never enabled
	tr.InstrumentPath(p, "chain")                 // no-op while disabled
	var nilTr *pathtrace.Tracer

	q := p.Q[core.QInFWD]
	m := msg.New(make([]byte, 8))
	allocs := testing.AllocsPerRun(1000, func() {
		q.Enqueue(m)
		q.Dequeue()
		tr.StageEnter(p, "A", 1)
		tr.StageExit(p)
		tr.ExecSpan(p.PID, "exec", 0, 0, 0)
		nilTr.StageEnter(p, "A", 1)
		nilTr.StageExit(p)
		nilTr.ExecSpan(p.PID, "exec", 0, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled hot path allocates %.1f per op, want 0", allocs)
	}
}
