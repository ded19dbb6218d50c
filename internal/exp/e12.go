package exp

import (
	"errors"
	"io"
	"time"

	"scout/internal/appliance"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/routers"
	"scout/internal/sim"
)

// E12: receive-path equivalence and effectiveness. The device-edge flow
// cache, the in-burst memo and fused path delivery must change *which host
// code* computes each result, never the result: every virtual-time charge is
// identical on a cache hit and a miss, and a fused stage charges exactly what
// its unfused original would. This experiment boots the same seeded world
// twice — the kernel, and the reference kernel (appliance.BootReference: full
// demux walk per frame, unfused delivery) — streams the same clip under ICMP
// background noise (traffic the cache must *not* claim), creates and destroys
// a second path mid-stream (a control-plane change that invalidates the
// cache), and requires both runs to agree on every output — displayed and
// complete frames, packets delivered, the path's charged CPU, and the virtual
// completion instant, to the nanosecond.

// E12Config parameterizes the experiment.
type E12Config struct {
	// Frames truncates the Neptune clip (0 = full).
	Frames int
	// Seed for the world (0 = 1).
	Seed int64
}

// e12FloodDepth is the adaptive ICMP flood's pipeline depth.
const e12FloodDepth = 2

func (c E12Config) withDefaults() E12Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SmokeE12Config is the CI-sized configuration.
func SmokeE12Config() E12Config {
	return E12Config{Frames: 150}
}

// E12Cell is one kernel's outputs plus its receive-path counters.
type E12Cell struct {
	// Outputs that must match between the two kernels.
	Displayed  int64
	CompleteI  int64
	CompleteP  int64
	PathCPUNs  int64 // CPU charged to the video path
	EndNs      int64 // virtual instant the last frame displayed
	PingEchoes int64 // ICMP replies the flooding host got back

	// Flow-cache and fusion counters (zero on the reference kernel).
	FlowHits          int64
	FlowMisses        int64
	FlowInserts       int64
	FlowInvalidations int64
	NoPathDrops       int64
	Fused             bool

	// Burst counters.
	RxBursts    int64 // receive interrupt entries
	BurstFrames int64 // frames those entries carried
	BurstShared int64 // frames resolved by in-burst sharing, no cache lookup
}

// E12Result holds the kernel's run and the reference kernel's.
type E12Result struct {
	Cfg  E12Config
	Fast E12Cell
	Ref  E12Cell
}

// sameOutputs reports whether two cells agree on every gated output.
func sameOutputs(a, b E12Cell) bool {
	return a.Displayed == b.Displayed &&
		a.CompleteI == b.CompleteI && a.CompleteP == b.CompleteP &&
		a.PathCPUNs == b.PathCPUNs && a.EndNs == b.EndNs &&
		a.PingEchoes == b.PingEchoes
}

// Match reports whether the kernel agrees with the reference on every output.
func (r E12Result) Match() bool { return sameOutputs(r.Fast, r.Ref) }

// Check is Match as a gate.
func (r E12Result) Check() error {
	if !r.Match() {
		return errors.New("outputs diverge from the reference kernel")
	}
	return nil
}

// RunE12 runs both kernels from the same seed.
func RunE12(cfg E12Config) E12Result {
	cfg = cfg.withDefaults()
	return E12Result{
		Cfg:  cfg,
		Fast: runE12Kernel(cfg, appliance.Boot),
		Ref:  runE12Kernel(cfg, appliance.BootReference),
	}
}

func runE12Kernel(cfg E12Config, boot bootFunc) E12Cell {
	clip := prefix(mpeg.Neptune, cfg.Frames)
	// E12 runs the standard world plus link jitter: the link's monotone
	// delivery clamp turns any jittered arrival that would overtake its
	// predecessor into a same-instant arrival, so the device sees real
	// multi-frame bursts (video and ICMP frames interleaved) instead of the
	// size-1 bursts a jitterless serial link produces. The jitter draws come
	// from the world seed, so both kernels see identical wire timing. The
	// flood is background ICMP noise: frames the flow cache must leave to the
	// full walk (not IPv4/UDP), interleaved with the cacheable video stream.
	w := newWorld(worldSpec{
		seed: cfg.Seed, maxRate: true, boot: boot, flood: e12FloodDepth,
		link:    netdev.LinkConfig{Jitter: 2 * time.Millisecond},
		streams: []streamSpec{maxRateStream(clip, false)},
	})
	k, p, sink := w.k, w.streams[0].p, w.streams[0].sink

	// Mid-stream control-plane churn: a second path comes and goes, so the
	// UDP binding table changes twice and the flow cache must invalidate
	// (and then repopulate) while the stream is in flight.
	w.eng.At(sim.Time(200*time.Millisecond), func() {
		p2, _, err := k.CreateVideoPath(&appliance.VideoAttrs{
			Source:    inet.Participants{RemoteAddr: srcAddr, RemotePort: 7001},
			FPS:       30,
			CostModel: true,
			QueueLen:  8,
		})
		if err != nil {
			return
		}
		w.eng.At(w.eng.Now().Add(300*time.Millisecond), func() { p2.Destroy() })
	})

	end := w.play(10 * time.Minute)

	cell := E12Cell{
		Displayed:   sink.Displayed(),
		PathCPUNs:   int64(p.CPUTime()),
		EndNs:       int64(end),
		NoPathDrops: k.Dev.NoPathDrops(),
		Fused:       p.Fused(),
		BurstShared: k.ETH.Stats().BurstShared,
	}
	cell.RxBursts, cell.BurstFrames = k.Dev.BurstStats()
	cell.CompleteI, cell.CompleteP, _ = routers.MPEGCompleteByKind(p, "MPEG")
	cell.PingEchoes = w.ping.EchoReplies
	if fc := k.Dev.Flows; fc != nil {
		st := fc.Stats()
		cell.FlowHits, cell.FlowMisses = st.Hits, st.Misses
		cell.FlowInserts, cell.FlowInvalidations = st.Inserts, st.Invalidations
	}
	return cell
}

// Print renders the differential result.
func (res E12Result) Print(w io.Writer) {
	cfg := res.Cfg
	frames := prefix(mpeg.Neptune, cfg.Frames).Frames
	fprintf(w, "E12: receive-path differential (Neptune %d frames + ICMP flood depth %d, seed %d)\n",
		frames, e12FloodDepth, cfg.Seed)
	fprintf(w, "%-13s %9s %6s %6s %8s %14s %14s\n",
		"KERNEL", "DISPLAYED", "I-OK", "P-OK", "ECHOES", "PATH-CPU", "END")
	row := func(name string, c E12Cell) {
		fprintf(w, "%-13s %9d %6d %6d %8d %14v %14v\n",
			name, c.Displayed, c.CompleteI, c.CompleteP, c.PingEchoes,
			time.Duration(c.PathCPUNs), time.Duration(c.EndNs))
	}
	row("fast", res.Fast)
	row("reference", res.Ref)
	f := res.Fast
	hitPct := 0.0
	if f.FlowHits+f.FlowMisses > 0 {
		hitPct = 100 * float64(f.FlowHits) / float64(f.FlowHits+f.FlowMisses)
	}
	fprintf(w, "flow cache: %d hits / %d misses (%.1f%% hit rate), %d inserts, %d invalidations; fused=%v\n",
		f.FlowHits, f.FlowMisses, hitPct, f.FlowInserts, f.FlowInvalidations, f.Fused)
	perEntry := 0.0
	if f.RxBursts > 0 {
		perEntry = float64(f.BurstFrames) / float64(f.RxBursts)
	}
	fprintf(w, "burst: %d interrupt entries carried %d frames (%.2f frames/entry), %d frames shared an in-burst resolution\n",
		f.RxBursts, f.BurstFrames, perEntry, f.BurstShared)
	fprintf(w, "no-path drops: fast=%d reference=%d\n", f.NoPathDrops, res.Ref.NoPathDrops)
	if err := res.Check(); err != nil {
		fprintf(w, "MISMATCH: %v\n", err)
	} else {
		fprintf(w, "MATCH: outputs identical to the reference kernel\n")
	}
	fprintf(w, "\nreading: the cache, the burst memo and fusion only change which host code\n")
	fprintf(w, "classifies and delivers each frame — every virtual-time charge is the same\n")
	fprintf(w, "on a hit and a miss, and a burst charges exactly the sum of its per-frame\n")
	fprintf(w, "costs — so both runs agree to the nanosecond while the kernel resolves most\n")
	fprintf(w, "frames in one flow-cache lookup instead of a three-router demux walk.\n")
}
