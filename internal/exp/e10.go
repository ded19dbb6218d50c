package exp

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"scout/internal/appliance"
	"scout/internal/mpeg"
	"scout/internal/pathtrace"
)

// E10: per-stage latency attribution for the Neptune MPEG path under a
// ramping ICMP flood — the Table-2 experiment re-run with the pathtrace
// subsystem attached, producing the breakdown the paper argues only
// explicit paths can produce (§4): as the flood ramps, per-stage CPU stays
// constant while interrupt steal and input-queue wait absorb the load.
// Everything runs on the virtual clock from a fixed seed, so the exported
// trace and metrics are byte-for-byte reproducible.

// E10Config parameterizes the experiment.
type E10Config struct {
	// Frames truncates the Neptune clip (0 = full 1345 frames).
	Frames int
	// Loads are the adaptive-flood pipeline depths to ramp through; 0
	// means unloaded. Empty selects the default ramp {0, 1, 4, 16}.
	Loads []int
	// Seed for the world (0 = 1).
	Seed int64
}

func (c E10Config) withDefaults() E10Config {
	if len(c.Loads) == 0 {
		c.Loads = []int{0, 1, 4, 16}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SmokeE10Config is the CI-sized configuration: a short clip and two load
// levels, enough to exercise every instrumentation point.
func SmokeE10Config() E10Config {
	return E10Config{Frames: 150, Loads: []int{0, 2}}
}

// E10Row is one load level's result.
type E10Row struct {
	// Load is the flood pipeline depth (0 = unloaded).
	Load int
	// FPS is the displayed frame rate at this level.
	FPS float64
	// Path is the video path's metric snapshot.
	Path pathtrace.PathMetrics
	// Tracer is the level's tracer, kept so callers can export the full
	// event stream (mpegbench -trace).
	Tracer *pathtrace.Tracer
}

// E10Result is the ramp, one row per load level.
type E10Result struct {
	Cfg  E10Config
	Rows []E10Row
}

// RunE10 runs the ramp, one fresh world per load level.
func RunE10(cfg E10Config) E10Result {
	cfg = cfg.withDefaults()
	res := E10Result{Cfg: cfg}
	for _, load := range cfg.Loads {
		res.Rows = append(res.Rows, runE10Level(cfg, load))
	}
	return res
}

func runE10Level(cfg E10Config, load int) E10Row {
	clip := prefix(mpeg.Neptune, cfg.Frames)
	st := maxRateStream(clip, false)
	st.attrs.Trace, st.attrs.TraceLabel = true, clip.Name
	w := newWorld(worldSpec{
		seed: cfg.Seed, maxRate: true, flood: load,
		tune:    func(c *appliance.Config) { c.Tracing = true },
		streams: []streamSpec{st},
	})
	s := w.streams[0]
	end := w.play(10 * time.Minute)

	row := E10Row{Load: load, FPS: rate(s.sink.Displayed(), end), Tracer: w.k.Tracer}
	for _, pm := range w.k.Tracer.MetricsDoc().Paths {
		if pm.PID == s.p.PID {
			row.Path = pm
			break
		}
	}
	return row
}

// Tracer is the highest-load level's tracer: the run mpegbench -trace and
// -metrics export.
func (r E10Result) Tracer() *pathtrace.Tracer { return r.Rows[len(r.Rows)-1].Tracer }

// digestTo covers the report and both exports: all three are determined by
// the seed.
func (r E10Result) digestTo(w io.Writer) {
	r.Print(w)
	must(r.Tracer().WriteTrace(w))
	must(r.Tracer().WriteMetricsJSON(w))
}

// Check requires every level to have traced its video path, so the exports
// are not empty documents.
func (r E10Result) Check() error {
	for _, row := range r.Rows {
		if row.Path.PID == 0 || len(row.Tracer.Events()) == 0 {
			return fmt.Errorf("load %d: video path missing from the trace", row.Load)
		}
	}
	return nil
}

// queueSummary finds the named queue row, returning a zero value if absent.
func queueSummary(pm pathtrace.PathMetrics, name string) pathtrace.QueueSummary {
	for _, q := range pm.Queues {
		if q.Queue == name {
			return q
		}
	}
	return pathtrace.QueueSummary{}
}

// Print renders the ramp as a per-stage latency table.
func (res E10Result) Print(w io.Writer) {
	cfg := res.Cfg
	frames := prefix(mpeg.Neptune, cfg.Frames).Frames
	fprintf(w, "E10: Neptune per-stage latency attribution under ICMP flood ramp\n")
	fprintf(w, "(%d frames, seed %d; flood is closed-loop with the given pipeline depth)\n\n", frames, cfg.Seed)
	for _, r := range res.Rows {
		loadName := "unloaded"
		if r.Load > 0 {
			loadName = "flood depth " + strconv.Itoa(r.Load)
		}
		pm := r.Path
		var perExecSteal time.Duration
		if pm.Exec.Execs > 0 {
			perExecSteal = time.Duration(pm.Exec.StolenNs / pm.Exec.Execs)
		}
		fprintf(w, "load=%-14s fps=%6.1f  execs=%d  irq-steal=%v (%v/exec)\n",
			loadName, r.FPS, pm.Exec.Execs, time.Duration(pm.Exec.StolenNs), perExecSteal)
		var totalSelf int64
		for _, sm := range pm.Stages {
			totalSelf += sm.SelfCPUNs
		}
		fprintf(w, "  %-8s %8s %12s %12s %7s\n", "STAGE", "EXECS", "SELF/EXEC", "CUM/EXEC", "SHARE")
		for _, sm := range pm.Stages {
			var selfPer, cumPer time.Duration
			if sm.Execs > 0 {
				selfPer = time.Duration(sm.SelfCPUNs / sm.Execs)
				cumPer = time.Duration(sm.CumCPUNs / sm.Execs)
			}
			share := 0.0
			if totalSelf > 0 {
				share = 100 * float64(sm.SelfCPUNs) / float64(totalSelf)
			}
			fprintf(w, "  %-8s %8d %12v %12v %6.1f%%\n", sm.Stage, sm.Execs, selfPer, cumPer, share)
		}
		in := queueSummary(pm, "in[BWD]")
		out := queueSummary(pm, "out[BWD]")
		fprintf(w, "  queue in[BWD]:  wait p50=%v p95=%v max=%v depth≤%d drops=%d\n",
			time.Duration(in.Wait.P50Ns), time.Duration(in.Wait.P95Ns), time.Duration(in.Wait.MaxNs), in.MaxDepth, in.Dropped)
		fprintf(w, "  queue out[BWD]: wait p50=%v p95=%v max=%v depth≤%d drops=%d\n",
			time.Duration(out.Wait.P50Ns), time.Duration(out.Wait.P95Ns), time.Duration(out.Wait.MaxNs), out.MaxDepth, out.Dropped)
		fprintf(w, "  wire: %d frames, %v airtime\n\n", pm.Wire.Frames, time.Duration(pm.Wire.AirtimeNs))
	}
	fprintf(w, "reading: per-stage CPU stays flat as the flood ramps; the load shows up\n")
	fprintf(w, "as interrupt steal and input-queue wait — attribution only an explicit\n")
	fprintf(w, "path object can provide (§4).\n")
}
