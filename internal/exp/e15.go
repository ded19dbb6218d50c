package exp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"time"

	"scout/internal/appliance"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/pathtrace"
	"scout/internal/routers"
	"scout/internal/sim"
)

// E15: sharded simulation scale. The parallel kernel's claim is twofold —
// (a) the sharded engine runs the same world faster as shards are added, and
// (b) sharding is *invisible*: a world built on S shards produces, for every
// S, byte-identical results to the single-threaded run. This experiment
// builds a population of independent appliance worlds ("groups"), each one
// kernel streaming PathsPerGroup MFLOW video paths from a source host — a
// fraction of the groups put their source across a cross-shard wire so the
// window-barrier machinery carries real traffic — and runs the identical
// world at each shard count in Shards. The report digests every group's
// per-path outputs (complete frames by kind, charged path CPU, packets sent
// and acked, source completion instants) in global group order, which is
// shard-layout-independent by construction; the gate requires every row to
// agree on the digest, the totals, and the executed event count. Wall-clock
// throughput (events/sec) and the speedup over S=1 are reported separately —
// they are the one thing that is *supposed* to change with S.
//
// At the default size the world holds Groups × PathsPerGroup = 102,400
// simultaneous video paths (the 10^5 target; -smoke is CI-sized). The
// speedup target (≥3× at 4 shards) only has meaning on a multicore host;
// RunE15 records runtime.NumCPU so callers can gate honestly.

// e15FPS is the paced sending rate: slow enough that the modeled decode CPU
// of PathsPerGroup concurrent streams fits in one kernel's virtual CPU.
const e15FPS = 5

// e15Clip is the tiny scale clip: 64×48 so the per-pixel display term stays
// small, a short GOP so even 3-frame smoke runs see both I and P frames.
var e15Clip = mpeg.ClipSpec{
	Name: "Scale", Frames: 4, W: 64, H: 48, FPS: e15FPS, GOP: 4,
	AvgPBits: 2000, Jitter: 0.2,
}

// E15Config parameterizes the experiment.
type E15Config struct {
	// Groups is the number of independent worlds (kernel + source each).
	Groups int
	// PathsPerGroup is the number of video paths per kernel.
	PathsPerGroup int
	// Frames is the per-path clip length.
	Frames int
	// Shards lists the shard counts to sweep; the first is the baseline.
	Shards []int
	// CrossEvery puts every Nth group's source host across a cross-shard
	// wire (0 disables cross traffic).
	CrossEvery int
	// Seed for every shard engine (0 = 1).
	Seed int64
	// Trace instruments path 0 of every group and digests the merged
	// (PID-namespaced, time-sorted) trace export — the pathtrace merge gate.
	// Only sensible at smoke sizes.
	Trace bool
	// Wall reads the host's monotonic clock; injected by cmd/mpegbench so
	// this package stays on the virtual clock. nil disables rate reporting.
	Wall func() time.Duration
}

func (c E15Config) withDefaults() E15Config {
	if c.Groups == 0 {
		c.Groups = 1600
	}
	if c.PathsPerGroup == 0 {
		c.PathsPerGroup = 64
	}
	if c.Frames == 0 {
		c.Frames = 4
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	if c.CrossEvery == 0 {
		c.CrossEvery = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SmokeE15Config is the CI-sized configuration: a few dozen paths, two shard
// counts, cross wires and trace merging still exercised.
func SmokeE15Config() E15Config {
	return E15Config{
		Groups: 6, PathsPerGroup: 8, Frames: 3,
		Shards: []int{1, 2}, CrossEvery: 3, Trace: true,
	}
}

// E15Row is one shard count's run.
type E15Row struct {
	Shards int

	// Outputs that must be identical across rows.
	Digest      uint64 // FNV-1a over every path's outputs in group order
	TraceDigest uint64 // FNV-1a over the merged trace export (0 unless Trace)
	Events      uint64 // events executed
	CompleteI   int64  // I frames completely decoded, summed over paths
	CompleteP   int64  // P frames
	Packets     int64  // packets sent by the sources
	Acks        int64  // MFLOW acks received back

	// Wall-clock measurement (the quantity that may change with Shards).
	WallSeconds float64
}

// E15Result is the sweep.
type E15Result struct {
	Cfg   E15Config
	Paths int // Groups × PathsPerGroup
	CPUs  int // runtime.NumCPU at run time
	Rows  []E15Row
}

// Match reports whether every shard count reproduced the baseline exactly.
func (r E15Result) Match() bool {
	if len(r.Rows) == 0 {
		return false
	}
	b := r.Rows[0]
	for _, row := range r.Rows[1:] {
		if row.Digest != b.Digest || row.TraceDigest != b.TraceDigest ||
			row.Events != b.Events ||
			row.CompleteI != b.CompleteI || row.CompleteP != b.CompleteP ||
			row.Packets != b.Packets || row.Acks != b.Acks {
			return false
		}
	}
	return true
}

// Check is Match as a gate, plus the speedup target (≥3× at 4 shards) on a
// host where it means something: multicore CI and laptops assert it,
// smaller containers report honestly.
func (r E15Result) Check() error {
	if !r.Match() {
		return errors.New("shard counts diverge: sharding leaked into the simulation")
	}
	if sp := r.SpeedupAt(4); r.CPUs >= 4 && sp > 0 && sp < 3.0 {
		return fmt.Errorf("speedup at 4 shards %.2fx, want >= 3x", sp)
	}
	return nil
}

// SpeedupAt returns the wall-clock speedup of the s-shard row over the
// baseline row (0 when either is missing or unmeasured).
func (r E15Result) SpeedupAt(s int) float64 {
	if len(r.Rows) == 0 || r.Rows[0].WallSeconds <= 0 {
		return 0
	}
	for _, row := range r.Rows {
		if row.Shards == s && row.WallSeconds > 0 {
			return r.Rows[0].WallSeconds / row.WallSeconds
		}
	}
	return 0
}

// RunE15 runs the sweep, one fresh cluster per shard count.
func RunE15(cfg E15Config) E15Result {
	cfg = cfg.withDefaults()
	clip := e15Clip
	clip.Frames = cfg.Frames
	// One prepared packet stream shared by every source of every run: the
	// templates are immutable, so sharing is safe across paths and shards.
	prep := host.PrepareClip(clip, 1024, 11)
	res := E15Result{Cfg: cfg, Paths: cfg.Groups * cfg.PathsPerGroup, CPUs: runtime.NumCPU()}
	for _, s := range cfg.Shards {
		res.Rows = append(res.Rows, runE15Shard(cfg, clip, prep, s))
		runtime.GC() // drop the previous world before building the next
	}
	return res
}

func runE15Shard(cfg E15Config, clip mpeg.ClipSpec, prep *host.Prepared, shards int) E15Row {
	const lookahead = time.Millisecond
	c := sim.NewCluster(cfg.Seed, shards, lookahead)
	groups := make([]*world, cfg.Groups)
	for g := range groups {
		groups[g] = bootE15Group(cfg, clip, prep, c, g)
	}

	var wallStart time.Duration
	if cfg.Wall != nil {
		wallStart = cfg.Wall()
	}
	// Fixed horizon: start stagger + paced clip duration + decode/ack slack.
	horizon := time.Duration(cfg.Frames)*time.Second/e15FPS + 300*time.Millisecond
	c.RunUntil(sim.Time(horizon))
	row := E15Row{Shards: shards, Events: c.EventsRun()}
	if cfg.Wall != nil {
		row.WallSeconds = (cfg.Wall() - wallStart).Seconds()
	}

	// Digest every path's outputs in global group order — an ordering no
	// shard layout can perturb.
	h := fnv.New64a()
	mix := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			_, _ = h.Write(b[:])
		}
	}
	var tracers []*pathtrace.Tracer
	for _, gr := range groups {
		for _, s := range gr.streams {
			ci, cp, _ := routers.MPEGCompleteByKind(s.p, "MPEG")
			_, doneAt := s.src.Done()
			mix(ci, cp, int64(s.p.CPUTime()), s.src.PacketsSent, s.src.AcksReceived, int64(doneAt))
			row.CompleteI += ci
			row.CompleteP += cp
			row.Packets += s.src.PacketsSent
			row.Acks += s.src.AcksReceived
		}
		if cfg.Trace {
			tracers = append(tracers, gr.k.Tracer)
		}
	}
	row.Digest = h.Sum64()
	if cfg.Trace {
		th := fnv.New64a()
		must(pathtrace.WriteMergedTrace(th, tracers...))
		row.TraceDigest = th.Sum64()
	}
	return row
}

// bootE15Group builds world g on its shard: a kernel, a 1 Gb/s link
// (cross-shard for every CrossEvery-th group), and PathsPerGroup path+source
// pairs.
func bootE15Group(cfg E15Config, clip mpeg.ClipSpec, prep *host.Prepared, c *sim.Cluster, g int) *world {
	spec := worldSpec{
		shard: c.Shard(g % c.Shards()),
		link:  netdev.LinkConfig{BitsPerSec: 1_000_000_000},
		tune: func(bc *appliance.Config) {
			bc.DisplayW, bc.DisplayH = clip.W, clip.H
			bc.RefreshHz = 30
			bc.StarveAfter = -1 // massively multi-path by design; no starvation log
			bc.Tracing = cfg.Trace
		},
	}
	if cfg.CrossEvery > 0 && g%cfg.CrossEvery == 0 {
		// The kernel lives on the link's home side; the source host sits one
		// shard over, so its whole stream crosses a window barrier.
		spec.cross = &crossWire{c: c, xid: int64(g) + 1, far: c.Shard((g + 1) % c.Shards())}
		spec.link.Delay = c.Lookahead()
	}
	for i := 0; i < cfg.PathsPerGroup; i++ {
		port := uint16(7000 + i)
		spec.streams = append(spec.streams, streamSpec{
			attrs: appliance.VideoAttrs{
				FPS: e15FPS, Frames: cfg.Frames, CostModel: true, QueueLen: 8,
				Sched: "rr", Priority: 2,
				Trace: cfg.Trace && i == 0, TraceLabel: "scale",
			},
			source: host.SourceConfig{Prepared: prep, SrcPort: port, FPS: e15FPS, Seed: 11},
			// Stagger starts so path setup (ARP, first windows) doesn't land on
			// one instant; the offsets depend only on the path index.
			startAt: time.Duration(i%32) * 500 * time.Microsecond,
		})
	}
	return newWorld(spec)
}

// Print renders the sweep and the cross-shard-count gate verdict. Lines
// carrying wall-clock quantities are prefixed "wall-clock" so recorded
// outputs can exclude them (they legitimately vary run to run).
func (res E15Result) Print(w io.Writer) { res.print(w, true) }

// digestTo is Print without what was measured about the host: the wall-clock
// lines and the CPU count.
func (res E15Result) digestTo(w io.Writer) { res.print(w, false) }

func (res E15Result) print(w io.Writer, hostLines bool) {
	cfg := res.Cfg
	fprintf(w, "E15: sharded simulation scale — %d groups × %d paths = %d concurrent video paths\n",
		cfg.Groups, cfg.PathsPerGroup, res.Paths)
	fprintf(w, "(%d frames/path at %d fps, cross wire every %d groups, seed %d)\n",
		cfg.Frames, e15FPS, cfg.CrossEvery, cfg.Seed)
	fprintf(w, "%-7s %12s %8s %8s %10s %10s %18s\n",
		"SHARDS", "EVENTS", "I-OK", "P-OK", "PACKETS", "ACKS", "DIGEST")
	for _, r := range res.Rows {
		fprintf(w, "%-7d %12d %8d %8d %10d %10d %18x\n",
			r.Shards, r.Events, r.CompleteI, r.CompleteP, r.Packets, r.Acks, r.Digest)
	}
	if cfg.Trace {
		fprintf(w, "merged-trace digest: %x (PID-namespaced, time-sorted across %d tracers)\n",
			res.Rows[0].TraceDigest, cfg.Groups)
	}
	for _, r := range res.Rows {
		if r.WallSeconds <= 0 || !hostLines {
			continue
		}
		line := ""
		if sp := res.SpeedupAt(r.Shards); r.Shards != res.Rows[0].Shards && sp > 0 {
			line = fmt.Sprintf(", speedup %.2fx", sp)
		}
		fprintf(w, "wall-clock S=%d: %.2fs, %.0f events/s%s\n",
			r.Shards, r.WallSeconds, float64(r.Events)/r.WallSeconds, line)
	}
	if res.Match() {
		fprintf(w, "MATCH: identical digests, totals and event counts at every shard count\n")
	} else {
		fprintf(w, "MISMATCH: shard counts diverge — sharding leaked into the simulation\n")
	}
	if hostLines {
		fprintf(w, "(host has %d CPUs; the ≥3x-at-4-shards target is asserted only with ≥4)\n", res.CPUs)
	}
	fprintf(w, "\nreading: shard-local event queues run a conservative window at a time\n")
	fprintf(w, "(lookahead = the minimum cross-shard link latency) and exchange frames\n")
	fprintf(w, "only at window barriers, so adding shards changes which goroutine runs\n")
	fprintf(w, "each group — never an outcome, an event count, or a random draw.\n")
}
