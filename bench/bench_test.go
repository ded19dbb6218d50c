package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func tinyEnv(seed int64) *env {
	return &env{seed: seed, sc: tinyScale, now: time.Now}
}

// fixedBlocks makes same-seed passes do identical work, whatever the host's
// speed.
var fixedBlocks = passSpec{fixedBlocks: 2}

// TestEveryWorkloadRuns runs each workload's untraced and traced pass at
// tiny scale: every op must succeed, every invariant hold, and the probes
// must not perturb the simulation.
func TestEveryWorkloadRuns(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			e := tinyEnv(1)
			u, err := e.runPass(wl, nil, fixedBlocks)
			if err != nil {
				t.Fatal(err)
			}
			if u.failed != 0 || u.attempted == 0 || len(u.problems) > 0 {
				t.Fatalf("untraced: attempted %d failed %d problems %v", u.attempted, u.failed, u.problems)
			}
			if len(u.setups) == 0 || u.opsPerSec() <= 0 {
				t.Fatalf("no set-up sample or no throughput: %v %v", u.setups, u.opsPerSec())
			}
			rec := newRecorder(time.Now)
			tr, err := e.runPass(wl, rec, fixedBlocks)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.problems) > 0 {
				t.Fatalf("traced: %v", tr.problems)
			}
			for i := range u.digests {
				if u.digests[i] != tr.digests[i] {
					t.Fatalf("block %d: traced digest %x != untraced %x", i, tr.digests[i], u.digests[i])
				}
			}
			if rec.agg[spStep].count == 0 {
				t.Fatal("traced pass recorded no root span")
			}
			if len(rec.stack) != 0 {
				t.Fatalf("%d spans left open", len(rec.stack))
			}
			// A stage that is not on the workload's paths records nothing.
			video := wl.name == "video_maxrate" || wl.name == "video_lossy" || wl.name == "scale_paths"
			if got := rec.agg[spMPEG].count > 0; got != video {
				t.Errorf("stage.MPEG spans present = %v, want %v", got, video)
			}
			if got := rec.agg[spTEST].count > 0; got == video {
				t.Errorf("stage.TEST spans present = %v, want %v", got, !video)
			}
		})
	}
}

// TestSameSeedSameResult: two runs of one seed agree on the digests and on
// the event count exactly, and on allocations up to what the runtime's own
// pools add (sync.Pool contents do not survive a GC cycle, and when a cycle
// falls is not ours to fix).
func TestSameSeedSameResult(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, err := tinyEnv(7).runPass(wl, nil, fixedBlocks)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tinyEnv(7).runPass(wl, nil, fixedBlocks)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.digests {
				if a.digests[i] != b.digests[i] {
					t.Fatalf("block %d: digests %x and %x", i, a.digests[i], b.digests[i])
				}
			}
			if a.ops != b.ops || a.delta[cEvents] != b.delta[cEvents] {
				t.Fatalf("ops %d/%d events %d/%d", a.ops, b.ops, a.delta[cEvents], b.delta[cEvents])
			}
			if d := math.Abs(float64(a.mallocs)-float64(b.mallocs)) / float64(a.mallocs); d > 0.02 {
				t.Errorf("mallocs %d and %d differ by %.1f%%", a.mallocs, b.mallocs, 100*d)
			}
			c, err := tinyEnv(8).runPass(wl, nil, fixedBlocks)
			if err != nil {
				t.Fatal(err)
			}
			if c.digests[1] == a.digests[1] {
				t.Error("another seed gave the same digest: the seed does not reach the inputs")
			}
		})
	}
}

// TestWorkloadsSeparate checks the properties the workloads were chosen for.
func TestWorkloadsSeparate(t *testing.T) {
	hitRatio := func(name string) float64 {
		wl, _ := workloadByName(name)
		p, err := tinyEnv(1).runPass(wl, nil, fixedBlocks)
		if err != nil {
			t.Fatal(err)
		}
		return ratio(p.delta[cFcHits], p.delta[cFcHits]+p.delta[cFcMisses])
	}
	hot, cold, churn := hitRatio("rx_hot"), hitRatio("rx_cold"), hitRatio("path_churn")
	if hot < 0.99 || cold != 0 || churn <= 0 || churn >= hot {
		t.Errorf("flow-cache hit ratio: rx_hot %v (want >= 0.99), rx_cold %v (want 0), path_churn %v (want between)", hot, cold, churn)
	}
}

// fakeClock advances only when told to.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestRecorderSelfTime drives the recorder with a fake clock: a span's self
// time is its duration minus its children's, and the self times of a step
// sum to the step's duration.
func TestRecorderSelfTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	r := newRecorder(clk.now)
	for step := 0; step < 3; step++ {
		r.begin(spStep)
		clk.advance(5)
		r.begin(spEthRx)
		clk.advance(7)
		r.end()
		clk.advance(1)
		r.begin(spETH)
		clk.advance(2)
		r.begin(spIP)
		clk.advance(3)
		r.begin(spTEST)
		clk.advance(11)
		r.end()
		clk.advance(4)
		r.end()
		r.end()
		clk.advance(6)
		r.end()
	}
	want := map[spanKind]spanAgg{
		spStep:  {count: 3, total: 3 * 39, self: 3 * 12, kids: 6},
		spEthRx: {count: 3, total: 3 * 7, self: 3 * 7},
		spETH:   {count: 3, total: 3 * 20, self: 3 * 2, kids: 3},
		spIP:    {count: 3, total: 3 * 18, self: 3 * 7, kids: 3},
		spTEST:  {count: 3, total: 3 * 11, self: 3 * 11},
	}
	var selfSum int64
	for k := spStep; k < nSpanKinds; k++ {
		if r.agg[k] != want[k] {
			t.Errorf("%s: got %+v, want %+v", spanNames[k], r.agg[k], want[k])
		}
		selfSum += r.agg[k].self
	}
	if selfSum != r.agg[spStep].total {
		t.Errorf("sum of self times %d != root total %d", selfSum, r.agg[spStep].total)
	}
	if r.steps != 3 || len(r.raw) != 15 {
		t.Fatalf("steps %d, raw spans %d", r.steps, len(r.raw))
	}
	// Raw spans: parents precede children and belong to the same step.
	for i, s := range r.raw {
		if s.kind == spStep {
			if s.parent != -1 {
				t.Errorf("span %d: root with parent %d", i, s.parent)
			}
			continue
		}
		p := r.raw[s.parent]
		if int(s.parent) >= i || p.step != s.step || p.start > s.start || p.end < s.end {
			t.Errorf("span %d %+v does not nest in its parent %+v", i, s, p)
		}
	}
	if got := r.coveragePct(); math.Abs(got-100*27.0/39) > 1e-9 {
		t.Errorf("coverage %v, want %v", got, 100*27.0/39)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the metric and workload
// tables compiled into the program, and both to the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, doc.Workloads[i], w.name)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || seen[w.name] {
			t.Errorf("workload %q breaks the naming rules", w.name)
		}
		seen[w.name] = true
	}
	check := func(kind string, got []jsonMetric, want []metricDef, limit int) {
		if len(got) != len(want) || len(want) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program, limit %d", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
			if kind == "end_to_end" && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound differs or is outside (0, 0.25]", d.name)
			}
			if kind == "per_layer" && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("metric %q (unit %q) breaks the naming rules", d.name, d.unit)
			}
			if d.better != "higher" && d.better != "lower" {
				t.Errorf("%s: better = %q", d.name, d.better)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, 16)
	check("per_layer", doc.PerLayer, perLayer, 128)
}

// TestResultLine checks the shape of the line the driver parses.
func TestResultLine(t *testing.T) {
	wl, _ := workloadByName("rx_hot")
	r, err := tinyEnv(1).runEndToEnd(wl, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	l := r.Line
	if !l.Correct {
		t.Fatalf("problems: %v", r.Problems)
	}
	if len(l.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(l.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m := l.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %+v: end-to-end metrics are never 0", d.name, m)
		}
	}
}

// TestPerLayerRun runs one whole traced run, ladder included, and checks
// that it reports every per-layer metric.
func TestPerLayerRun(t *testing.T) {
	wl, _ := workloadByName("path_churn")
	r, err := tinyEnv(1).runPerLayer(wl, 0.05, "")
	if err != nil {
		t.Fatal(err)
	}
	l := r.Line
	if !l.Correct {
		t.Fatalf("problems: %v", r.Problems)
	}
	if len(l.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(l.Metrics), len(perLayer))
	}
	for _, m := range []string{"core.path.create_us_p50", "core.path.create_us", "sim.event_ns_heap16", "stage.TEST.self_ns", "core.flowcache.invalidations_per_op"} {
		if l.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, l.Metrics[m].Value)
		}
	}
	if l.Metrics["stage.MPEG.self_ns"].Value != 0 {
		t.Errorf("stage.MPEG.self_ns = %v on a packet workload", l.Metrics["stage.MPEG.self_ns"].Value)
	}
}
