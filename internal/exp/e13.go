package exp

import (
	"io"
	"time"

	"scout/internal/mpath"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/routers"
	"scout/internal/sim"
)

// E13: multipath transport. Scout's thesis is that paths should be explicit;
// this experiment makes the *set* of paths between one source/sink pair
// explicit and measures what the selection policy on top of it is worth.
// Eight flows compete over k parallel links, each flow one logical reliable
// MFLOW stream carried by a k-subpath PathSet. Mid-run one link degrades to
// 5% (bursty) loss. The grid sweeps k ∈ {1,2,4} × the four selection
// policies and reports, per policy: the complete-frame rate, the per-flow
// Jain fairness index, and the switch/re-pin counts — the oscillation
// measure that separates a damped policy (loss-aware hysteresis) from a
// greedy one. Everything runs on the virtual clock from one seed, so two
// runs of the same configuration are byte-identical.

// E13Config parameterizes the multipath grid.
type E13Config struct {
	// Flows is how many video flows compete over the shared path set
	// (default 8).
	Flows int
	// Frames truncates the Flower clip (0 = full 150).
	Frames int
	// Ks are the subpath counts to sweep (default {1, 2, 4}).
	Ks []int
	// Policies are the selection policies to sweep (default all four).
	Policies []string
	// Seed for the world (0 = 1). Per-link fault streams derive from it.
	Seed int64
}

// The degradation: e13FaultAt is when the degraded link's fault plan installs;
// the plan is 5% independent + 5% burst loss, mean burst 8.
const (
	e13FaultAt       = 500 * time.Millisecond
	e13FaultLoss     = 0.05
	e13FaultBurst    = 0.05
	e13FaultBurstLen = 8
)

func (c E13Config) withDefaults() E13Config {
	if c.Flows == 0 {
		c.Flows = 8
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 2, 4}
	}
	if len(c.Policies) == 0 {
		c.Policies = mpath.PolicyNames
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SmokeE13Config is the CI-sized configuration: the full k × policy grid on
// a shorter clip.
func SmokeE13Config() E13Config {
	return E13Config{Frames: 60}
}

// E13Cell is one (k, policy, faulted) run of the competing-flow workload.
type E13Cell struct {
	K        int
	Policy   string
	Faulted  bool
	Degraded int // index of the degraded link (-1 when not faulted)

	// MeanRate averages the per-flow complete-frame rates (complete frames
	// per second of the flow's active time); Jain is the
	// fairness index over per-flow complete counts (1 = perfectly fair).
	MeanRate float64
	Jain     float64
	// Switches and Repins aggregate the policy's subpath changes across
	// flows — the oscillation count.
	Switches int64
	Repins   int64
	// CompleteFrac is total complete frames over total frames offered.
	CompleteFrac float64
	// DegradedRate / CleanRate split MeanRate by whether the flow started
	// (or is pinned) on the degraded link; equal to MeanRate when k = 1.
	DegradedRate float64
	CleanRate    float64
}

// E13Result is the full grid: per k, an unfaulted loss-aware baseline (the
// "unloaded" complete-frame rate) plus one faulted cell per policy.
type E13Result struct {
	Cfg       E13Config
	Baselines []E13Cell // one per k, Faulted = false
	Cells     []E13Cell // len(Ks) × len(Policies) in that order, Faulted = true
}

// jain computes Jain's fairness index over xs: (Σx)² / (n·Σx²).
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// RunE13 runs the whole grid.
func RunE13(cfg E13Config) E13Result {
	cfg = cfg.withDefaults()
	res := E13Result{Cfg: cfg}
	for _, k := range cfg.Ks {
		res.Baselines = append(res.Baselines, runE13Cell(cfg, k, "loss-aware-ewma", false))
		for _, pol := range cfg.Policies {
			res.Cells = append(res.Cells, runE13Cell(cfg, k, pol, true))
		}
	}
	return res
}

// runE13Cell boots a fresh k-link world and runs all flows to completion (or
// stall) under one policy.
func runE13Cell(cfg E13Config, k int, policy string, faulted bool) E13Cell {
	clip := prefix(mpeg.Flower, cfg.Frames)
	// Every link gets its own fault stream (engine seed ⊕ link ID).
	spec := worldSpec{seed: cfg.Seed, maxRate: true, wires: k}
	for f := 0; f < cfg.Flows; f++ {
		st := maxRateStream(clip, true)
		st.source.SrcPort = uint16(7000 + 16*f)
		st.policy, st.startSub = policy, f%k
		spec.streams = append(spec.streams, st)
	}
	w := newWorld(spec)

	degraded := -1
	if faulted {
		// With alternatives, degrade link 1 (so subpath 0 stays clean and
		// re-pinned flows have somewhere to go); alone, link 0 takes the hit.
		degraded = 0
		if k > 1 {
			degraded = 1
		}
		dl := w.links[degraded]
		w.eng.At(sim.Time(e13FaultAt), func() {
			dl.InjectFaults(netdev.FaultPlan{
				Loss: e13FaultLoss, BurstLoss: e13FaultBurst, BurstLen: e13FaultBurstLen,
			})
		})
	}

	// Degraded pinned flows may never finish; play's quiet period ends the
	// cell for them.
	end := w.play(10 * time.Minute)
	total := w.streams[0].total

	cell := E13Cell{K: k, Policy: policy, Faulted: faulted, Degraded: degraded}
	var rates, degRates, cleanRates, completes []float64
	var totalComplete int64
	for f, s := range w.streams {
		complete, _ := routers.MPEGComplete(s.p, "MPEG")
		at := s.lastChange
		if at == 0 {
			at = end
		}
		r := rate(complete, at)
		cell.Switches += s.set.Switches()
		cell.Repins += s.set.Repins()
		totalComplete += complete
		rates = append(rates, r)
		completes = append(completes, float64(complete))
		if f%k == degraded { // the flow's seeded/pinned subpath
			degRates = append(degRates, r)
		} else {
			cleanRates = append(cleanRates, r)
		}
	}
	cell.MeanRate = mean(rates)
	cell.DegradedRate = mean(degRates)
	cell.CleanRate = mean(cleanRates)
	cell.Jain = jain(completes)
	cell.CompleteFrac = float64(totalComplete) / float64(total*int64(cfg.Flows))
	return cell
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Print renders the grid.
func (res E13Result) Print(w io.Writer) {
	cfg := res.Cfg
	frames := prefix(mpeg.Flower, cfg.Frames).Frames
	fprintf(w, "E13: multipath selection policies (%d flows x Flower %d frames, max-rate, seed %d)\n",
		cfg.Flows, frames, cfg.Seed)
	fprintf(w, "mid-run fault at %v: %.0f%% loss + %.0f%% burst loss (mean burst %d) on the degraded link\n",
		e13FaultAt, e13FaultLoss*100, e13FaultBurst*100, e13FaultBurstLen)
	fprintf(w, "%2s %-18s %7s %9s %6s %8s %7s %9s %9s\n",
		"k", "policy", "mean", "complete", "jain", "switches", "repins", "deg-rate", "cln-rate")
	for i, b := range res.Baselines {
		fprintf(w, "%2d %-18s %7.2f %8.1f%% %6.3f %8d %7d %9s %9s\n",
			b.K, "unloaded-ref", b.MeanRate, b.CompleteFrac*100, b.Jain, b.Switches, b.Repins, "-", "-")
		for _, c := range res.Cells[i*len(cfg.Policies) : (i+1)*len(cfg.Policies)] {
			fprintf(w, "%2d %-18s %7.2f %8.1f%% %6.3f %8d %7d %9.2f %9.2f\n",
				c.K, c.Policy, c.MeanRate, c.CompleteFrac*100, c.Jain, c.Switches, c.Repins,
				c.DegradedRate, c.CleanRate)
		}
	}
	fprintf(w, "\nreading: with one wire (k=1) every policy rides the degraded link and the\n")
	fprintf(w, "complete-frame rate collapses together. With alternatives, pinned flows on\n")
	fprintf(w, "the degraded link keep paying full price (deg-rate vs cln-rate), striping\n")
	fprintf(w, "spreads a fractional tax over every flow, latency-greedy herds and\n")
	fprintf(w, "oscillates (switch counts), and loss-aware-ewma's hysteresis re-pins each\n")
	fprintf(w, "flow once onto clean wires and holds near the unloaded reference rate.\n")
}
