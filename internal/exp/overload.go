package exp

import (
	"errors"
	"fmt"
	"io"
	"time"

	"scout/internal/admission"
	"scout/internal/appliance"
	"scout/internal/chaos"
	"scout/internal/core"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/proto/inet"
	"scout/internal/routers"
	"scout/internal/sim"
)

// E11: overload survival. A live Neptune broadcast (the source paces packets
// at the frame rate and cannot pause — cameras don't buffer) is driven
// through a transient CPU-overload ramp: the chaos injector inflates the
// MPEG stage's decode cost inside a virtual-time window. The run is played
// once with the degradation ladder attached and once without. With
// degradation on, the watchdog's deadline-miss signal escalates the ladder
// and late-GOP P-frame packets are shed at the network adapter, by frame
// kind: the path rides out the overload with a bounded miss count, every I
// frame intact, and ≥90% of the unloaded complete-frame count. With
// degradation off, the same overload overflows the input queue and
// tail-drops packets indiscriminately: frames lose arbitrary packets —
// I frames included — and the complete-frame rate collapses, because a
// frame missing one packet decodes to nothing while its remaining packets
// still burn CPU.
//
// A VOD variant replaces the live source with one that honours shrinking
// window advertisements (host.SourceConfig.Backpressure): under the same
// overload the receiver throttles the sender at the origin, nothing is
// tail-dropped, and the stream completes in full — late, which is what a
// non-live stream is allowed to be.
//
// A second scenario exercises the admission controller's revocation path:
// three admitted paths, a model refit that reveals overcommitment, and a
// Reassess() that tears down the lowest-value path (audited clean) and
// degrades the next.

// E11Config parameterizes the experiment.
type E11Config struct {
	// Frames truncates the Neptune clip (0 = full 1345 frames).
	Frames int
	// Overcommits are the CPU demand/capacity ratios to ramp to inside the
	// overload window. Empty selects {1.5, 2.0}.
	Overcommits []float64
	// WindowStart/WindowDur bound the overload window in virtual time
	// (defaults 8s and 8s; the window should cover a minority of the clip
	// so the ON cell can hold ≥90% of the unloaded complete-frame count).
	WindowStart, WindowDur time.Duration
	// Seed for the world (0 = 1).
	Seed int64
}

func (c E11Config) withDefaults() E11Config {
	if len(c.Overcommits) == 0 {
		c.Overcommits = []float64{1.5, 2.0}
	}
	if c.WindowStart == 0 {
		c.WindowStart = 8 * time.Second
	}
	if c.WindowDur == 0 {
		c.WindowDur = 8 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SmokeOverloadConfig is the CI-sized configuration: a 400-frame clip
// (13.3s) with a 2.5s overload window at 1.5× — short, but long enough for
// the ladder to escalate, shed, and relax.
func SmokeOverloadConfig() E11Config {
	return E11Config{
		Frames:      400,
		Overcommits: []float64{1.5},
		WindowStart: 4 * time.Second,
		WindowDur:   2500 * time.Millisecond,
	}
}

// E11Cell is one (overcommit, degradation) run.
type E11Cell struct {
	Overcommit float64 // demand/capacity inside the window (0 = baseline)
	Degrade    bool
	Live       bool // live-paced source (true) or window-honouring VOD

	FramesSent           int
	CompleteI, CompleteP int64
	ShedP, ShedI         int64
	TailDrops            int64 // input-queue refused enqueues (indiscriminate)

	Misses      int64 // watchdog EDF deadline misses on the video path
	FinalLevel  int
	Probes      int64 // source window probes while backpressured
	NoPathDrops int64 // frames the classifier discarded for want of a path

	Audit []string // invariant violations (must be empty)
}

// CompleteRate is the fraction of sent frames that displayed complete.
func (c E11Cell) CompleteRate() float64 {
	if c.FramesSent == 0 {
		return 0
	}
	return float64(c.CompleteI+c.CompleteP) / float64(c.FramesSent)
}

// E11Result is the whole experiment.
type E11Result struct {
	Cfg          E11Config
	BaselineUtil float64 // unloaded CPU utilization of the path
	Baseline     E11Cell
	Cells        []E11Cell
	VOD          E11Cell // backpressure variant at the first overcommit
	Revocation   RevocationResult
}

// RunE11 runs the baseline, the overload grid, the VOD backpressure variant,
// and the revocation scenario.
func RunE11(cfg E11Config) E11Result {
	cfg = cfg.withDefaults()
	res := E11Result{Cfg: cfg}
	var util float64
	res.Baseline, util = runE11Cell(cfg, 0, false, 0, true)
	res.BaselineUtil = util
	for _, oc := range cfg.Overcommits {
		factor := oc / util
		for _, degrade := range []bool{true, false} {
			cell, _ := runE11Cell(cfg, oc, degrade, factor, true)
			res.Cells = append(res.Cells, cell)
		}
	}
	res.VOD, _ = runE11Cell(cfg, cfg.Overcommits[0], false, cfg.Overcommits[0]/util, false)
	res.Revocation = runE11Revocation(cfg.Seed)
	return res
}

// runE11Cell plays the clip through one fresh world. factor is the CPU
// inflation applied to the MPEG stage inside the overload window (<=1 or a
// zero overcommit means no fault); live picks the source's reaction to a
// closed window (keep sending vs throttle).
func runE11Cell(cfg E11Config, overcommit float64, degrade bool, factor float64, live bool) (E11Cell, float64) {
	clip := prefix(mpeg.Neptune, cfg.Frames)
	w := newWorld(worldSpec{seed: cfg.Seed, streams: []streamSpec{{
		attrs: appliance.VideoAttrs{
			FPS: clip.FPS, Frames: clip.Frames, CostModel: true, QueueLen: 32,
			Degrade: degrade, GOP: clip.GOP,
		},
		source: host.SourceConfig{
			Clip: clip, SrcPort: 7000, CostOnly: true, Seed: 11,
			Live: live, Backpressure: !live,
		},
	}}})
	eng, k, s := w.eng, w.k, w.streams[0]
	p, src := s.p, s.src

	inj := chaos.New(eng)
	if overcommit > 0 && factor > 1 {
		from := sim.Time(cfg.WindowStart)
		until := from.Add(cfg.WindowDur)
		inj.InflateStageCPU(p, "MPEG", factor, from, until)
	}

	clipDur := time.Duration(clip.Frames) * time.Second / time.Duration(clip.FPS)
	runUntil(eng, clipDur+30*time.Second, func() bool {
		return s.sent() && p.Q[core.QInBWD].Empty() && p.Q[core.QOutBWD].Empty()
	})
	eng.RunFor(2 * time.Second) // let the display drain and the ladder relax

	cell := E11Cell{
		Overcommit: overcommit,
		Degrade:    degrade,
		Live:       live,
		FramesSent: src.NumFrames(),
		Misses:     k.Watch.MissesByPath(p.PID),
		Probes:     src.Probes,
	}
	cell.CompleteI, cell.CompleteP, _ = routers.MPEGCompleteByKind(p, "MPEG")
	cell.TailDrops = p.Q[core.QInBWD].Dropped()
	cell.NoPathDrops = k.Dev.NoPathDrops()
	if d := k.Degrader(p); d != nil {
		cell.ShedP, cell.ShedI = d.ShedP, d.ShedI
		cell.FinalLevel = d.Level()
	}
	cell.Audit = auditAndDestroy(p) // every chaos run ends with the lifecycle check

	util := float64(p.CPUTime()) / float64(clipDur)
	return cell, util
}

// auditAndDestroy audits p's conservation invariants with the path alive
// (nothing leaked), destroys it, and audits the teardown too (queues drained,
// memory released), returning every violation.
func auditAndDestroy(p *core.Path) []string {
	alive := chaos.AuditPath(p)
	p.Destroy()
	var violations []string
	for _, v := range append(alive, chaos.AuditPath(p)...) {
		violations = append(violations, v.String())
	}
	return violations
}

// RevocationResult records the admission-revocation scenario.
type RevocationResult struct {
	// AdmittedCPU is the controller's committed CPU after the three admits.
	AdmittedCPU float64
	// RefitCPU is the total demand after the model refit revealed the real
	// per-frame cost.
	RefitCPU float64
	// Revoked lists the revoked grant ids, in revocation order.
	Revoked []int64
	// DegradedLevel is the ladder level the mid-value path was pushed to.
	DegradedLevel int
	// DestroyedDead reports that the lowest-value path was destroyed.
	DestroyedDead bool
	// Audit holds invariant violations after teardown (must be empty).
	Audit []string
}

// runE11Revocation builds three admitted paths, refits the model to reveal
// 3× the assumed decode cost, and lets Reassess pick victims: the
// lowest-value grant's path is torn down (and audited), the next is
// degraded in place.
func runE11Revocation(seed int64) RevocationResult {
	k := newWorld(worldSpec{seed: seed}).k

	ctl := admission.NewController(0.9, 64<<20)
	// Train the model at the assumed cost: 10ms per average frame.
	for i := 0; i < 20; i++ {
		ctl.Model.Observe(float64(mpeg.Neptune.AvgPBits), 10*time.Millisecond)
	}

	type adm struct {
		p  *core.Path
		id int64
	}
	var paths []adm
	for i := 0; i < 3; i++ {
		p, _, err := k.CreateVideoPath(&appliance.VideoAttrs{
			Source:    inet.Participants{RemoteAddr: srcAddr, RemotePort: uint16(7000 + i)},
			CostModel: true,
			QueueLen:  16,
			Degrade:   i != 2, // the lowest-value path has no ladder: revocation must tear it down
		})
		must(err)
		id, _, err := ctl.AdmitVideo(30, float64(mpeg.Neptune.AvgPBits), 256<<10)
		must(err)
		paths = append(paths, adm{p, id})
	}
	res := RevocationResult{}
	res.AdmittedCPU, _ = ctl.Utilization()

	// Values: path 0 is the session the user cares about most.
	for i, a := range paths {
		ctl.SetGrantValue(a.id, float64(3-i))
		p := a.p
		ctl.OnRevoke(a.id, func(int64) {
			if d := routers.DegraderOf(p); d != nil {
				d.Degrade(8) // degrade in place: revocation need not mean death
			} else {
				p.Destroy()
			}
		})
	}

	// The running system measures what decode actually costs: 3× the
	// assumption. The refit makes the overcommitment visible (§4.4).
	for i := 0; i < 60; i++ {
		ctl.Model.Observe(float64(mpeg.Neptune.AvgPBits), 30*time.Millisecond)
	}
	res.RefitCPU = ctl.EstimateCPU(30, float64(mpeg.Neptune.AvgPBits)) * float64(len(paths))
	res.Revoked = ctl.Reassess()

	if d := routers.DegraderOf(paths[1].p); d != nil {
		res.DegradedLevel = d.Level()
	}
	res.DestroyedDead = paths[2].p.Dead()
	for _, a := range paths {
		for _, v := range chaos.AuditPath(a.p) {
			res.Audit = append(res.Audit, v.String())
		}
	}
	return res
}

// Check requires every cell's lifecycle audit to be clean, and the
// revocation scenario to have revoked a grant, destroyed the lowest-value
// path and degraded the next one in place.
func (res E11Result) Check() error {
	for _, c := range append([]E11Cell{res.Baseline, res.VOD}, res.Cells...) {
		if len(c.Audit) != 0 {
			return fmt.Errorf("overcommit %.1f: audit violations: %v", c.Overcommit, c.Audit)
		}
	}
	rev := res.Revocation
	switch {
	case len(rev.Revoked) == 0:
		return errors.New("revocation: the overcommit refit revoked nothing")
	case !rev.DestroyedDead:
		return errors.New("revocation: lowest-value path not destroyed")
	case rev.DegradedLevel == 0:
		return errors.New("revocation: mid-value path not degraded")
	case len(rev.Audit) != 0:
		return fmt.Errorf("revocation: audit violations: %v", rev.Audit)
	}
	return nil
}

// Print renders the experiment.
func (res E11Result) Print(w io.Writer) {
	cfg := res.Cfg
	frames := prefix(mpeg.Neptune, cfg.Frames).Frames
	fprintf(w, "E11: Neptune overload survival (chaos CPU ramp in [%v, %v), seed %d)\n",
		cfg.WindowStart, cfg.WindowStart+cfg.WindowDur, cfg.Seed)
	fprintf(w, "unloaded: %d/%d frames complete, util=%.2f, misses=%d\n\n",
		res.Baseline.CompleteI+res.Baseline.CompleteP, frames, res.BaselineUtil, res.Baseline.Misses)
	fprintf(w, "%-10s %-7s %-5s %9s %7s %7s %7s %7s %8s %6s %7s %7s\n",
		"OVERCOMMIT", "DEGRADE", "SRC", "COMPLETE", "I-OK", "SHED-P", "SHED-I", "DROPS", "MISSES", "LEVEL", "PROBES", "NOPATH")
	base := res.Baseline.CompleteRate()
	row := func(c E11Cell) {
		rel := 0.0
		if base > 0 {
			rel = c.CompleteRate() / base
		}
		src := "live"
		if !c.Live {
			src = "vod"
		}
		fprintf(w, "%-10.1f %-7v %-5s %7.1f%% %7d %7d %7d %7d %8d %6d %7d %7d\n",
			c.Overcommit, c.Degrade, src, 100*rel, c.CompleteI, c.ShedP, c.ShedI,
			c.TailDrops, c.Misses, c.FinalLevel, c.Probes, c.NoPathDrops)
		for _, v := range c.Audit {
			fprintf(w, "  AUDIT VIOLATION: %s\n", v)
		}
	}
	for _, c := range res.Cells {
		row(c)
	}
	row(res.VOD)
	fprintf(w, "\nrevocation: admitted cpu=%.2f, refit demand=%.2f -> revoked %v,\n",
		res.Revocation.AdmittedCPU, res.Revocation.RefitCPU, res.Revocation.Revoked)
	fprintf(w, "mid-value path degraded to level %d, lowest-value path destroyed=%v, audit violations=%d\n",
		res.Revocation.DegradedLevel, res.Revocation.DestroyedDead, len(res.Revocation.Audit))
	fprintf(w, "\nreading: with the ladder attached the path sheds only whole tail-of-GOP\n")
	fprintf(w, "P frames — every I frame survives, nothing is tail-dropped, and the\n")
	fprintf(w, "misses are honest EDF misses inside the overload window that stop when\n")
	fprintf(w, "it closes. Without the ladder the same ramp overflows the input queue\n")
	fprintf(w, "and tail drops maim frames indiscriminately, I frames included (each\n")
	fprintf(w, "of which would poison its whole GOP in a real decoder); the low miss\n")
	fprintf(w, "count is an artifact — a frame missing a packet never decodes, so it\n")
	fprintf(w, "cannot be late. The vod row shows backpressure as the alternative for\n")
	fprintf(w, "a throttleable source: the window slows the sender and every frame\n")
	fprintf(w, "completes, late.\n")
}
