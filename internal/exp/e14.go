package exp

import (
	"io"
	"time"

	"scout/internal/appliance"
	"scout/internal/chaos"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/routers"
	"scout/internal/sim"
	"scout/internal/splice"
)

// E14: live path migration. The link under a reliable Neptune stream is
// administratively killed mid-clip. netdev's receive-silence detector
// raises the verdict on the virtual clock, splice pauses the path at the
// MFLOW boundary, resplices UDP/IP/ETH onto the second NIC, invalidates
// both device flow caches, re-wires trace spans, readvertises the window,
// and resumes — no teardown, the flow state and every queued fbuf survive.
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
	// KillAt is when link 0 dies (default 250ms — mid-clip).
	KillAt time.Duration
	// Silence is the receive-silence window armed on NIC 0 (default 50ms:
	// safely above the ~20ms decode-bound ack stalls of a healthy stream,
	// well under the sender's RTO backoff scale).
	Silence time.Duration
	// Budget bounds the virtual time from link death to the migration's
	// completion (default 100ms: one silence window + detector slack).
	Budget time.Duration
	// FailoverLosses is how many sender-side loss signals retire subflow 0
	// (default 2: one RTO is jitter, two in a row is a dead wire).
	FailoverLosses int
}

func (c E14Config) withDefaults() E14Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.KillAt == 0 {
		c.KillAt = 250 * time.Millisecond
	}
	if c.Silence == 0 {
		c.Silence = 50 * time.Millisecond
	}
	if c.Budget == 0 {
		c.Budget = 100 * time.Millisecond
	}
	if c.FailoverLosses == 0 {
		c.FailoverLosses = 2
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

// Ok reports whether the migration gate holds on both kernels: exactly one
// migration, within budget, every frame displayed complete, nothing
// abandoned, conservation audits clean — and the two match.
func (r E14Result) Ok() bool {
	budget := int64(r.Cfg.withDefaults().Budget)
	for _, c := range []E14Cell{r.Fast, r.Ref} {
		if c.Migrations != 1 || c.MigrateLatencyNs > budget {
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

func runE14Kernel(cfg E14Config, boot bootFunc) E14Cell {
	eng := sim.New(cfg.Seed)
	links := make([]*netdev.Link, 2)
	for i := range links {
		// The spare link is slightly slower, so post-migration timing is
		// visibly the new wire's, not an artifact of identical links.
		links[i] = netdev.NewLink(eng, netdev.LinkConfig{
			ID:         i,
			BitsPerSec: linkBps,
			Delay:      linkDelay + time.Duration(i)*20*time.Microsecond,
		})
	}
	bcfg := appliance.DefaultConfig()
	bcfg.MAC, bcfg.Addr = scoutMAC, scoutAddr
	bcfg.RefreshHz = 2000
	bcfg.ExtraLinks = links[1:]
	kern, err := boot(eng, links[0], bcfg)
	if err != nil {
		panic(err)
	}
	// One sending host per wire, same identity: the same source address and
	// source port on either link, so the flow's UDP 4-tuple — and therefore
	// its demux identity — is unchanged by which wire carries it.
	hostA := host.New(links[0], srcMAC, srcAddr)
	hostB := host.New(links[1], srcMAC, srcAddr)

	clip := mpeg.Neptune
	if cfg.Frames > 0 {
		clip.Frames = cfg.Frames
	}
	p, lport, err := kern.CreateVideoPath(&appliance.VideoAttrs{
		Source:    inet.Participants{RemoteAddr: srcAddr, RemotePort: 7000},
		FPS:       2000,
		CostModel: true,
		QueueLen:  32,
		Sched:     "rr",
		Priority:  2,
		Reliable:  true,
	})
	if err != nil {
		panic(err)
	}
	src, err := host.NewSource(hostA, host.SourceConfig{
		Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, Seed: 11,
		Retransmit: true,
	})
	if err != nil {
		panic(err)
	}
	src.AddSubflow(hostB, 7000)

	// Deterministic sender-side failover: all traffic rides subflow 0 until
	// FailoverLosses consecutive loss signals retire it, then subflow 1.
	active, lossCount := 0, 0
	var failoverAt sim.Time
	src.Dispatch = func(seq uint32, retx bool) int { return active }
	src.OnSubLoss = func(sub int) {
		if active == 0 && sub == 0 {
			lossCount++
			if lossCount >= cfg.FailoverLosses {
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
	lp := lport
	eng.At(0, func() { src.Start(kern.Cfg.Addr, lp) })

	// Arm the migration: NIC 0's silence verdict routes through the path's
	// overload plumbing and splice rebuilds the lower stages onto NIC 1.
	mig := kern.NewMigrator()
	if err := mig.Arm(splice.Plan{
		Path: p, From: kern.Devs[0], To: kern.Devs[1], ToLink: 1,
		Silence: cfg.Silence,
	}); err != nil {
		panic(err)
	}

	// Kill the primary link mid-clip, sampling the flow-cache generations
	// the migration must advance.
	var gen0, gen1 uint64
	eng.At(sim.Time(cfg.KillAt), func() {
		if fc := kern.Devs[0].Flows; fc != nil {
			gen0 = fc.Gen()
		}
		if fc := kern.Devs[1].Flows; fc != nil {
			gen1 = fc.Gen()
		}
		links[0].SetDown()
	})

	sink := kern.Display.Sink(p, "DISPLAY")
	total := int64(src.NumFrames())
	var lastDisp int64
	var lastChange sim.Time
	end := runUntil(eng, 10*time.Minute, func() bool {
		if d := sink.Displayed(); d != lastDisp {
			lastDisp, lastChange = d, eng.Now()
		}
		if lastDisp >= total {
			return true
		}
		// A wedged migration must not hang the gate: stop after 3 quiet
		// sim-seconds (beyond the RTO ceiling and the hold flush).
		return lastChange > 0 && eng.Now().Sub(lastChange) >= 3*time.Second
	})

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
		cell.MigrateLatencyNs = int64(ms[0].At.Sub(sim.Time(cfg.KillAt)))
	}
	if fc := kern.Devs[0].Flows; fc != nil {
		cell.OldGenBumped = fc.Gen() > gen0
	}
	if fc := kern.Devs[1].Flows; fc != nil {
		cell.NewGenBumped = fc.Gen() > gen1
	}
	// Conservation must hold with the path alive (nothing the pause retained
	// leaked) and after destroy (queues drained, memory released).
	for _, v := range chaos.AuditPath(p) {
		cell.AuditViolations = append(cell.AuditViolations, v.String())
	}
	p.Destroy()
	for _, v := range chaos.AuditPath(p) {
		cell.AuditViolations = append(cell.AuditViolations, v.String())
	}
	return cell
}

// PrintE14 renders the migration differential.
func PrintE14(w io.Writer, res E14Result) {
	cfg := res.Cfg
	frames := cfg.Frames
	if frames == 0 {
		frames = mpeg.Neptune.Frames
	}
	fprintf(w, "E14: live path migration (Neptune %d frames, link killed at %v, seed %d)\n",
		frames, cfg.KillAt, cfg.Seed)
	fprintf(w, "detector: %v receive silence; migration budget %v; sender fails over after %d losses\n",
		cfg.Silence, cfg.Budget, cfg.FailoverLosses)
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
	if res.Ok() {
		fprintf(w, "OK: migrated once within budget, zero incomplete frames, outputs identical\n")
		fprintf(w, "    to the reference kernel\n")
	} else if !res.Match() {
		fprintf(w, "MISMATCH: outputs diverge from the reference kernel\n")
	} else {
		fprintf(w, "FAILED: migration gate violated (count, budget, frame loss, or audits)\n")
	}
	fprintf(w, "\nreading: the path object survives its device: explicit paths let the OS\n")
	fprintf(w, "pause a flow at a stage boundary, rebuild everything below it on a healthy\n")
	fprintf(w, "wire, and resume with the in-flight queue contents intact — the transport\n")
	fprintf(w, "repairs what the dead wire swallowed, so the viewer sees every frame.\n")
}
