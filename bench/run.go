package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"scout/internal/msg"
)

// pass is one measured run of a workload's world: an untimed warm-up block,
// then timed blocks.
type pass struct {
	w       world
	blocks  []blockResult // timed blocks only
	digests []uint64      // after the warm-up (index 0) and after each timed block
	setups  []float64     // seconds per world construction

	ops, attempted, failed int64 // attempted and failed include the warm-up
	seconds                float64
	delta                  counts // counters over the timed blocks
	mallocs, bytes         uint64 // runtime.MemStats deltas over the timed blocks
	liveHeap               uint64
	problems               []string
}

// passSpec says how long a pass measures: until budget has elapsed and
// minBlocks are done, or exactly fixedBlocks when that is positive.
type passSpec struct {
	budget      time.Duration
	minBlocks   int
	fixedBlocks int
	// setupSamples builds (and drops) an extra world after each timed block,
	// so that setup_s is a median over the whole run and not one reading.
	setupSamples bool
}

// Extra worlds are built while they stay under a tenth of the budget: a
// world that builds in under a millisecond gets a sample per block, a slow
// one as many as it can afford.
const (
	setupMaxSamples = 200
	setupBudgetPart = 10
)

// liveHeapBlock is the timed block after which the live heap is read; every
// time-limited pass runs at least this many.
const liveHeapBlock = 3

func snapshot(w world) counts {
	var c counts
	w.addCounts(&c)
	_, _, c[cCopyBytes] = msg.CopyStats()
	return c
}

func (e *env) runPass(wl workload, rec *recorder, spec passSpec) (*pass, error) {
	p := &pass{}
	var setupSpent time.Duration
	build := func() (world, error) {
		runtime.GC()
		t0 := e.now()
		w, err := wl.build(e)
		if !wl.setupInBlock {
			d := e.now().Sub(t0)
			setupSpent += d
			p.setups = append(p.setups, d.Seconds())
		}
		return w, err
	}
	w, err := build()
	if err != nil {
		return nil, err
	}
	p.w = w

	h := fnv.New64a()
	var m0, m1 runtime.MemStats
	runBlock := func(i int) blockResult {
		runtime.ReadMemStats(&m0)
		r := w.block(rec)
		runtime.ReadMemStats(&m1)
		p.attempted += r.attempted
		p.failed += r.failed
		if wl.setupInBlock {
			p.setups = append(p.setups, r.setup.Seconds())
		}
		w.digest(h)
		p.digests = append(p.digests, h.Sum64())
		return r
	}
	runBlock(0) // warm-up: caches fill, pools grow, lazy set-up finishes
	if rec != nil {
		rec.agg = [nSpanKinds]spanAgg{} // aggregates cover the timed blocks
	}

	c0 := snapshot(w)
	start := e.now()
	for i := 1; ; i++ {
		if spec.fixedBlocks > 0 {
			if i > spec.fixedBlocks {
				break
			}
		} else if i > spec.minBlocks && e.now().Sub(start) >= spec.budget {
			break
		}
		r := runBlock(i)
		p.blocks = append(p.blocks, r)
		p.ops += r.ops
		p.seconds += r.run.Seconds()
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.bytes += m1.TotalAlloc - m0.TotalAlloc
		if i == liveHeapBlock || i == spec.fixedBlocks && i < liveHeapBlock {
			// Read at a fixed point in the work, not at the end of the run:
			// what a world retains per op would otherwise make the reading
			// depend on how many blocks the host had time for.
			runtime.GC()
			runtime.ReadMemStats(&m1)
			p.liveHeap = m1.HeapAlloc
		}
		if spec.setupSamples && !wl.setupInBlock && len(p.setups) < setupMaxSamples &&
			setupSpent < spec.budget/setupBudgetPart {
			if _, err := build(); err != nil {
				return nil, err
			}
		}
	}
	c1 := snapshot(w)
	p.delta = c1.sub(&c0)

	p.problems = w.violations()
	for _, dc := range dropCounters {
		if wl.queueDropsOK && (dc.idx == cEthQueueFull || dc.idx == cQDropped) {
			continue
		}
		if c1[dc.idx] != 0 {
			p.problems = append(p.problems, fmt.Sprintf("%s = %d, want 0", dc.name, c1[dc.idx]))
		}
	}
	return p, nil
}

// opsPerSec is the fastest block's throughput. Blocks are identical fixed
// work, and what varies between them is the host: on a shared machine its
// speed wanders by half again within one run, in spells of seconds. The
// fastest block is the one the host disturbed least, which makes it the
// steadiest estimate of what the program costs (the median block moves twice
// as much from run to run).
func (p *pass) opsPerSec() float64 { return fastest(p.blocks) }

func fastest(blocks []blockResult) float64 {
	best := 0.0
	for _, b := range blocks {
		if b.run > 0 {
			best = math.Max(best, float64(b.ops)/b.run.Seconds())
		}
	}
	return best
}

// metricValue and resultLine are the contract's result line: the last line
// of a single-workload run's standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is what one run of one workload reports, and what it leaves in the
// output directory.
type result struct {
	Host     hostInfo   `json:"host"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Scale    string     `json:"scale"`
	Trace    bool       `json:"trace"`
	Digests  []string   `json:"digests"`
	Problems []string   `json:"problems"`
	Line     resultLine `json:"result"`
}

func (e *env) newResult(wl workload, trace bool) *result {
	return &result{Workload: wl.name, Seed: e.seed, Scale: e.sc.name, Trace: trace}
}

// defs lists the metrics the run reports.
func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

func hexDigests(ds []uint64) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = strconv.FormatUint(d, 16)
	}
	return out
}

// checkGolden compares the digest after the first timed block with the
// recorded one. Only the default seed at full scale has a recorded value.
func (e *env) checkGolden(wl workload, p *pass) []string {
	want, ok := goldenDigests[wl.name]
	if !ok || e.seed != 1 || e.sc.name != fullScale.name || len(p.digests) < 2 {
		return nil
	}
	if got := strconv.FormatUint(p.digests[1], 16); got != want {
		return []string{fmt.Sprintf("digest %s, want %s: the simulation's outputs changed", got, want)}
	}
	return nil
}

// finish fills in the result line from the measured values and settles the
// verdict: any problem fails every op.
func (r *result) finish(p *pass, v values, problems []string) {
	l := resultLine{Attempted: max(p.attempted, 1), Failed: p.failed, Metrics: map[string]metricValue{}}
	if len(problems) > 0 {
		l.Failed = l.Attempted
	}
	l.Correct = l.Failed == 0
	for _, d := range r.defs() {
		x := v[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		l.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	r.Line, r.Problems, r.Digests = l, problems, hexDigests(p.digests)
}

// runEndToEnd measures the end-to-end metrics: one untraced pass.
func (e *env) runEndToEnd(wl workload, seconds float64) (*result, error) {
	p, err := e.runPass(wl, nil, passSpec{
		budget: time.Duration(seconds * float64(time.Second)), minBlocks: liveHeapBlock, setupSamples: true,
	})
	if err != nil {
		return nil, err
	}
	r, v := e.newResult(wl, false), values{}
	v["ops_per_s"] = p.opsPerSec()
	v["allocs_per_op"] = float64(p.mallocs) / float64(max(p.ops, 1))
	v["bytes_per_op"] = float64(p.bytes) / float64(max(p.ops, 1))
	v["live_heap_mb"] = float64(p.liveHeap) / (1 << 20)
	v["setup_s"] = median(p.setups)
	r.finish(p, v, append(p.problems, e.checkGolden(wl, p)...))
	return r, nil
}

// runPerLayer measures the per-layer metrics: an untraced pass for the
// counters, a traced pass of the same blocks on a fresh world for the
// spans, and the ladder.
func (e *env) runPerLayer(wl workload, seconds float64, traceOut string) (*result, error) {
	u, err := e.runPass(wl, nil, passSpec{budget: time.Duration(seconds / 2 * float64(time.Second)), minBlocks: 2})
	if err != nil {
		return nil, err
	}
	problems := append(u.problems, e.checkGolden(wl, u)...)
	r, v := e.newResult(wl, true), values{}
	countMetrics(v, &u.delta, u.ops, u.seconds)
	v["bench.timed_blocks"] = float64(len(u.blocks))
	switch w := u.w.(type) {
	case *rxWorld:
		v["core.path.create_us_p50"] = percentile(w.createSamples, 0.50) / 1e3
		v["core.path.create_us_p99"] = percentile(w.createSamples, 0.99) / 1e3
	case *videoWorld:
		v["fidelity.paper_fps_err_pct"] = w.paperErrPct()
	}
	u.w = nil // let the untraced world go before the traced one is built

	rec := newRecorder(e.now)
	rec.inner, rec.outer = probeCost(e.now)
	t, err := e.runPass(wl, rec, passSpec{fixedBlocks: len(u.blocks)})
	if err != nil {
		return nil, err
	}
	for i := range t.digests {
		if t.digests[i] != u.digests[i] {
			problems = append(problems, fmt.Sprintf("traced digest differs from untraced after block %d: the probes perturb the simulation", i))
			break
		}
	}
	problems = append(problems, t.problems...)
	for k := spStep; k < nSpanKinds; k++ {
		v[spanNames[k]+".self_ns"] = rec.selfNs(k, t.ops)
	}
	v["trace.root_ns_per_op"] = rec.netTotal() / float64(max(t.ops, 1))
	v["trace.probe_ns"] = rec.inner + rec.outer
	v["trace.coverage_pct"] = rec.coveragePct()
	if tr := t.opsPerSec(); tr > 0 {
		v["trace.overhead_pct"] = 100 * (u.opsPerSec()/tr - 1)
	}
	if traceOut != "" {
		if err := writeTraceFile(rec, traceOut, wl.name, e.seed); err != nil {
			return nil, err
		}
	}

	if wl.setupInBlock {
		speedup, why := e.clusterSpeedup(u)
		v["sim.cluster.speedup"] = speedup
		if why != "" {
			problems = append(problems, why)
		}
	}
	if err := e.runLadder(v); err != nil {
		problems = append(problems, err.Error())
	}
	v["runtime.peak_rss_mb"] = peakRSSMB()
	r.finish(u, v, problems)
	return r, nil
}

// clusterSpeedup repeats scale_paths' first blocks on several shards and
// compares like with like: the fastest of as many blocks on each side. The
// sharded digest must equal the one-shard digest.
func (e *env) clusterSpeedup(one *pass) (float64, string) {
	n := min(len(one.blocks), 3)
	shards := min(runtime.NumCPU(), 4)
	wl := workload{
		name: "scale_paths", setupInBlock: true,
		build: func(e *env) (world, error) { return newScaleWorld(e, shards), nil },
	}
	many, err := e.runPass(wl, nil, passSpec{fixedBlocks: n})
	if err != nil {
		return 0, err.Error()
	}
	if many.digests[n] != one.digests[n] {
		return 0, fmt.Sprintf("digest at %d shards differs from 1 shard: sharding leaked into the simulation", shards)
	}
	if len(many.problems) > 0 {
		return 0, strings.Join(many.problems, "; ")
	}
	if base := fastest(one.blocks[:n]); base > 0 {
		return many.opsPerSec() / base, ""
	}
	return 0, ""
}

func writeTraceFile(rec *recorder, path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeTrace(f, workload, seed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads this process's resident-set high-water mark, which in a
// per-layer run covers both passes and the ladder.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
