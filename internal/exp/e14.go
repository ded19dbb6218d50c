package exp

import (
	"errors"
	"io"
	"time"

	"scout/internal/appliance"
	"scout/internal/mpeg"
	"scout/internal/routers"
	"scout/internal/sim"
	"scout/internal/splice"
)

// E14: live path migration. The link under a reliable Neptune stream is
// administratively killed mid-clip. netdev's receive-silence detector
// raises the verdict on the virtual clock, splice pauses the path at the
// MFLOW boundary, resplices UDP/IP/ETH onto the second NIC (which re-applies
// the path's interposers to them), invalidates both device flow caches,
// readvertises the window, and resumes — no teardown, the flow state and
// every queued fbuf survive.
// The sender, meanwhile, fails its subflow over after a fixed number of
// loss signals, and MFLOW's ordinary recovery (fast retransmit + RTO)
// repairs the packets the dead link swallowed. The gate: exactly one
// migration within a bounded number of virtual milliseconds, every frame
// displayed complete (zero incomplete), zero packets abandoned, the path's
// conservation audit clean before and after destroy — and, E12-style, the
// kernel and the reference kernel byte-identical on every output, which is
// also what proves a stale burst memo from the retired device can never
// deliver post-migration.

// E14Config parameterizes the migration experiment.
type E14Config struct {
	// Frames truncates the Neptune clip (0 = full).
	Frames int
	// Seed for the world (0 = 1).
	Seed int64
}

const (
	// e14KillAt is when link 0 dies: mid-clip.
	e14KillAt = 250 * time.Millisecond
	// e14Silence is the receive-silence window armed on NIC 0: safely above
	// the ~20ms decode-bound ack stalls of a healthy stream, well under the
	// sender's RTO backoff scale.
	e14Silence = 50 * time.Millisecond
	// e14Budget bounds the virtual time from link death to the migration's
	// completion: one silence window + detector slack.
	e14Budget = 100 * time.Millisecond
	// e14FailoverLosses is how many sender-side loss signals retire subflow
	// 0: one RTO is jitter, two in a row is a dead wire.
	e14FailoverLosses = 2
)

func (c E14Config) withDefaults() E14Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SmokeE14Config is the CI-sized configuration (short clip).
func SmokeE14Config() E14Config {
	return E14Config{Frames: 150}
}

// E14Cell is one kernel's outputs plus its migration facts.
type E14Cell struct {
	// Outputs that must match between the kernel and the reference.
	Total       int64
	Displayed   int64
	CompleteI   int64
	CompleteP   int64
	Incomplete  int64 // clip frames that did not arrive whole: must be 0
	PathCPUNs   int64
	EndNs       int64 // virtual instant the last frame displayed
	Migrations  int
	MigrateAtNs int64 // virtual instant the path resumed on the new NIC

	// Per-cell facts (printed, gated where noted).
	MigrateLatencyNs int64 // MigrateAt − KillAt: gated against Budget
	FailoverAtNs     int64 // sender retired subflow 0
	DeadLinkDrops    int64 // frames the dead link swallowed
	Retx             int64
	RTOs             int64
	Abandoned        int64 // must be 0: every swallowed packet recovered
	OldGenBumped     bool  // retired NIC's flow-cache generation advanced
	NewGenBumped     bool  // adopting NIC's flow-cache generation advanced
	AuditViolations  []string
}

// E14Result holds the kernel's run and the reference kernel's.
type E14Result struct {
	Cfg  E14Config
	Fast E14Cell
	Ref  E14Cell
}

// sameE14Outputs reports whether two cells agree on every gated output.
func sameE14Outputs(a, b E14Cell) bool {
	return a.Total == b.Total && a.Displayed == b.Displayed &&
		a.CompleteI == b.CompleteI && a.CompleteP == b.CompleteP &&
		a.Incomplete == b.Incomplete &&
		a.PathCPUNs == b.PathCPUNs && a.EndNs == b.EndNs &&
		a.Migrations == b.Migrations && a.MigrateAtNs == b.MigrateAtNs
}

// Match reports whether the kernel agrees with the reference on every output.
func (r E14Result) Match() bool { return sameE14Outputs(r.Fast, r.Ref) }

// Check is Ok as a gate.
func (r E14Result) Check() error {
	switch {
	case r.Ok():
		return nil
	case !r.Match():
		return errors.New("outputs diverge from the reference kernel")
	}
	return errors.New("migration gate violated (count, budget, frame loss, or audits)")
}

// Ok reports whether the migration gate holds on both kernels: exactly one
// migration, within budget, every frame displayed complete, nothing
// abandoned, conservation audits clean — and the two match.
func (r E14Result) Ok() bool {
	for _, c := range []E14Cell{r.Fast, r.Ref} {
		if c.Migrations != 1 || c.MigrateLatencyNs > int64(e14Budget) {
			return false
		}
		if c.Displayed != c.Total || c.Incomplete != 0 || c.Abandoned != 0 {
			return false
		}
		if len(c.AuditViolations) != 0 {
			return false
		}
	}
	return r.Match()
}

// RunE14 runs both kernels from the same seed.
func RunE14(cfg E14Config) E14Result {
	cfg = cfg.withDefaults()
	return E14Result{
		Cfg:  cfg,
		Fast: runE14Kernel(cfg, appliance.Boot),
		Ref:  runE14Kernel(cfg, appliance.BootReference),
	}
}

// e14World is the two-NIC migration topology: a reliable Neptune stream over
// wire 0 with wire 1 idle as the spare. The spare is slightly slower, so
// post-migration timing is visibly the new wire's, not an artifact of
// identical links. Each wire has a sending host of the same identity: the
// same source address and source port on either link, so the flow's UDP
// 4-tuple — and therefore its demux identity — is unchanged by which wire
// carries it.
func e14World(cfg E14Config, boot bootFunc) *world {
	clip := prefix(mpeg.Neptune, cfg.Frames)
	w := newWorld(worldSpec{
		seed: cfg.Seed, maxRate: true, wires: 2, boot: boot,
		streams: []streamSpec{maxRateStream(clip, true)},
	})
	w.streams[0].src.AddSubflow(w.hosts[1], 7000)
	return w
}

func runE14Kernel(cfg E14Config, boot bootFunc) E14Cell {
	w := e14World(cfg, boot)
	eng, kern, links := w.eng, w.k, w.links
	p, src, sink, total := w.streams[0].p, w.streams[0].src, w.streams[0].sink, w.streams[0].total

	// Deterministic sender-side failover: all traffic rides subflow 0 until
	// FailoverLosses consecutive loss signals retire it, then subflow 1.
	active, lossCount := 0, 0
	var failoverAt sim.Time
	src.Dispatch = func(seq uint32, retx bool) int { return active }
	src.OnSubLoss = func(sub int) {
		if active == 0 && sub == 0 {
			lossCount++
			if lossCount >= e14FailoverLosses {
				active = 1
				failoverAt = eng.Now()
				// Failover burst: re-drive the whole unacked buffer through
				// the (now switched) dispatch policy so the dead wire's
				// swallowed packets arrive long before the receiver's hold
				// timeout gives up on them.
				src.RedispatchUnacked()
			}
		}
	}

	// Arm the migration: NIC 0's silence verdict routes through the path's
	// overload plumbing and splice rebuilds the lower stages onto NIC 1.
	mig := kern.NewMigrator()
	must(mig.Arm(splice.Plan{
		Path: p, From: kern.Devs[0], To: kern.Devs[1], ToLink: 1,
		Silence: e14Silence,
	}))

	// Kill the primary link mid-clip, sampling the flow-cache generations
	// the migration must advance.
	var gen0, gen1 uint64
	eng.At(sim.Time(e14KillAt), func() {
		if fc := kern.Devs[0].Flows; fc != nil {
			gen0 = fc.Gen()
		}
		if fc := kern.Devs[1].Flows; fc != nil {
			gen1 = fc.Gen()
		}
		links[0].SetDown()
	})

	// A wedged migration must not hang the gate: play's quiet period ends it.
	end := w.play(10 * time.Minute)

	cell := E14Cell{
		Total:         total,
		Displayed:     sink.Displayed(),
		PathCPUNs:     int64(p.CPUTime()),
		EndNs:         int64(end),
		FailoverAtNs:  int64(failoverAt),
		DeadLinkDrops: links[0].DownDrops(),
		Retx:          src.FastRetransmits,
		RTOs:          src.RTOs,
		Abandoned:     src.Abandoned,
	}
	cell.CompleteI, cell.CompleteP, _ = routers.MPEGCompleteByKind(p, "MPEG")
	cell.Incomplete = total - (cell.CompleteI + cell.CompleteP)
	ms := mig.Migrations()
	cell.Migrations = len(ms)
	if len(ms) > 0 {
		cell.MigrateAtNs = int64(ms[0].At)
		cell.MigrateLatencyNs = int64(ms[0].At.Sub(sim.Time(e14KillAt)))
	}
	if fc := kern.Devs[0].Flows; fc != nil {
		cell.OldGenBumped = fc.Gen() > gen0
	}
	if fc := kern.Devs[1].Flows; fc != nil {
		cell.NewGenBumped = fc.Gen() > gen1
	}
	// Nothing the pause retained may have leaked.
	cell.AuditViolations = auditAndDestroy(p)
	return cell
}

// Print renders the migration differential.
func (res E14Result) Print(w io.Writer) {
	cfg := res.Cfg
	frames := prefix(mpeg.Neptune, cfg.Frames).Frames
	fprintf(w, "E14: live path migration (Neptune %d frames, link killed at %v, seed %d)\n",
		frames, e14KillAt, cfg.Seed)
	fprintf(w, "detector: %v receive silence; migration budget %v; sender fails over after %d losses\n",
		e14Silence, e14Budget, e14FailoverLosses)
	fprintf(w, "%-13s %9s %6s %6s %6s %12s %12s %14s %14s\n",
		"KERNEL", "DISPLAYED", "I-OK", "P-OK", "INCOMP", "MIGRATE-AT", "MIG-LAT", "PATH-CPU", "END")
	row := func(name string, c E14Cell) {
		fprintf(w, "%-13s %9d %6d %6d %6d %12v %12v %14v %14v\n",
			name, c.Displayed, c.CompleteI, c.CompleteP, c.Incomplete,
			time.Duration(c.MigrateAtNs), time.Duration(c.MigrateLatencyNs),
			time.Duration(c.PathCPUNs), time.Duration(c.EndNs))
	}
	row("fast", res.Fast)
	row("reference", res.Ref)
	f := res.Fast
	fprintf(w, "migration: %d, resumed on the spare NIC %v after link death; sender failover at %v\n",
		f.Migrations, time.Duration(f.MigrateLatencyNs), time.Duration(f.FailoverAtNs))
	fprintf(w, "dead link swallowed %d frames; recovery: %d fast retransmits, %d RTOs, %d abandoned\n",
		f.DeadLinkDrops, f.Retx, f.RTOs, f.Abandoned)
	fprintf(w, "flow-cache generations advanced: retired NIC %v, adopting NIC %v (the reference kernel has no cache)\n",
		f.OldGenBumped, f.NewGenBumped)
	audits := 0
	for _, c := range []E14Cell{res.Fast, res.Ref} {
		audits += len(c.AuditViolations)
		for _, v := range c.AuditViolations {
			fprintf(w, "AUDIT: %s\n", v)
		}
	}
	if audits == 0 {
		fprintf(w, "conservation audits clean on both kernels (pre- and post-destroy)\n")
	}
	switch err := res.Check(); {
	case err == nil:
		fprintf(w, "OK: migrated once within budget, zero incomplete frames, outputs identical\n")
		fprintf(w, "    to the reference kernel\n")
	case !res.Match():
		fprintf(w, "MISMATCH: %v\n", err)
	default:
		fprintf(w, "FAILED: %v\n", err)
	}
	fprintf(w, "\nreading: the path object survives its device: explicit paths let the OS\n")
	fprintf(w, "pause a flow at a stage boundary, rebuild everything below it on a healthy\n")
	fprintf(w, "wire, and resume with the in-flight queue contents intact — the transport\n")
	fprintf(w, "repairs what the dead wire swallowed, so the viewer sees every frame.\n")
}
