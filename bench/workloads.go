package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"scout/internal/appliance"
	"scout/internal/core"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/proto/mflow"
	"scout/internal/routers"
	"scout/internal/sim"
)

// scale fixes the size of one block of each workload. Blocks are fixed work;
// a run measures as many of them as fit in its time budget.
type scale struct {
	name string

	rxHotPkts, rxColdPkts, churnPkts int64
	clipFrames                       int // 0 = the clips' real lengths
	maxratePasses, lossyPasses       int
	groups, pathsPerGroup, frames    int
	ladder                           int // iterations per ladder rung
}

var (
	// fullScale sizes most blocks to 0.1-0.2 s of host time, so a 12 s run
	// has eighty-odd chances at a block the host left alone.
	fullScale = scale{
		name:      "full",
		rxHotPkts: 125_000, rxColdPkts: 62_500, churnPkts: 62_500,
		maxratePasses: 1, lossyPasses: 2,
		groups: 64, pathsPerGroup: 64, frames: 4,
		ladder: 200_000,
	}
	// tinyScale lets the tier-1 test run every workload in well under 3 s.
	tinyScale = scale{
		name:      "tiny",
		rxHotPkts: 4096, rxColdPkts: 4096, churnPkts: 4096,
		clipFrames:    20,
		maxratePasses: 1, lossyPasses: 1,
		groups: 4, pathsPerGroup: 4, frames: 2,
		ladder: 2000,
	}
)

// workload is one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	op   string // what one op is
	why  string
	// build constructs the world. For workloads whose block is a whole
	// world, build only prepares shared inputs and setupInBlock is set.
	build        func(e *env) (world, error)
	setupInBlock bool
	// queueDropsOK exempts a full input queue from the zero-drop invariant.
	queueDropsOK bool
}

var workloads = []workload{
	{
		name: "video_maxrate", op: "displayed frame",
		why:   "Table 1: four clips at max rate through ETH/IP/UDP/MFLOW/MPEG/DISPLAY with sched, acks and vsync; carries the fidelity check",
		build: func(e *env) (world, error) { return newVideoWorld(e, false) },
	},
	{
		name: "video_lossy", op: "complete frame",
		why:   "Neptune over 1% loss on a reliable path: mflow resequencing, retransmit timers and canceled-event compaction, which rx_* bypass",
		build: func(e *env) (world, error) { return newVideoWorld(e, true) },
		// Loss recovery overruns the window by design: retransmissions
		// arrive beside new data and the driver discards the excess early.
		// Every frame must still come out whole.
		queueDropsOK: true,
	},
	{
		name: "rx_hot", op: "packet absorbed",
		why:   "bare forwarding of 60-byte frames to 64 paths in runs of 8: per-packet cost with every lookup hitting the flow cache",
		build: func(e *env) (world, error) { return newRxWorld(e, rxHot) },
	},
	{
		name: "rx_cold", op: "packet absorbed",
		why:   "same frames over 1024 flows visited cyclically: every packet misses the 256-entry cache and pays the walk, insert and evict",
		build: func(e *env) (world, error) { return newRxWorld(e, rxCold) },
	},
	{
		name: "path_churn", op: "packet absorbed",
		why:   "rx_hot traffic beside a path create and destroy every 32 packets: invalidation cost and steady-state CreatePath latency",
		build: func(e *env) (world, error) { return newRxWorld(e, rxChurn) },
	},
	{
		name: "scale_paths", op: "complete frame",
		why:          "many kernels x 64 paced video paths on sim.Cluster: event heap depth, Boot and CreateVideoPath set-up, bytes per path",
		build:        func(e *env) (world, error) { return newScaleWorld(e, 1), nil },
		setupInBlock: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- packet workloads -------------------------------------------------

type rxKind int

const (
	rxHot rxKind = iota
	rxCold
	rxChurn
)

const (
	rxBasePort    = 9300
	churnBasePort = 20000
	churnPorts    = 20000
	churnEvery    = 32
)

type rxWorld struct {
	e    *env
	eng  *sim.Engine
	k    *appliance.Kernel
	gen  *generator
	rec  *recorder
	pkts int64 // frames per block to the stable paths

	stable  []*core.Path
	testR   *core.Router
	retired counts // queue drops of destroyed paths

	// path_churn state.
	ephFrame      []byte
	ephSent       int64
	creates       int64
	createFailed  int64
	createSamples []int64 // wall ns per Graph.CreatePath
}

func newRxWorld(e *env, kind rxKind) (world, error) {
	w := &rxWorld{e: e}
	flows, run := 64, int64(8)
	switch kind {
	case rxHot:
		w.pkts = e.sc.rxHotPkts
	case rxCold:
		flows, run, w.pkts = 1024, 1, e.sc.rxColdPkts
	case rxChurn:
		flows, w.pkts = 32, e.sc.churnPkts
	}
	w.eng = sim.New(e.seed)
	// 100 µs of jitter against a 16 µs mean gap: the link's no-overtaking
	// clamp then lands several frames on one instant.
	link := netdev.NewLink(w.eng, netdev.LinkConfig{
		BitsPerSec: 1_000_000_000, Delay: 20 * time.Microsecond, Jitter: 100 * time.Microsecond,
	})
	k, err := bootKernel(w.eng, link, 0)
	if err != nil {
		return nil, err
	}
	w.k = k
	w.testR, _ = k.Graph.Router("TEST")
	// The source is a host so that it answers the appliance's ARP request;
	// the generator transmits through its raw device.
	h := host.New(link, srcMAC, srcAddr)
	templates := make([][]byte, flows)
	for i := range templates {
		p, err := k.Graph.CreatePath(w.testR, testAttrs(rxBasePort+i))
		if err != nil {
			return nil, err
		}
		w.stable = append(w.stable, p)
		templates[i] = testFrame(uint16(rxBasePort + i))
	}
	nflows := int64(flows)
	w.gen = newGenerator(w.eng, h.Dev, templates, func(i int64) int { return int(i / run % nflows) })
	if kind == rxChurn {
		w.ephFrame = testFrame(0)
		w.gen.every = churnEvery
		w.gen.control = w.churn
	}
	return w, nil
}

// churn is one control-plane write: create a path on a fresh port, send it
// one frame, destroy it a millisecond later.
func (w *rxWorld) churn() {
	port := churnBasePort + int(w.creates%churnPorts)
	t0 := w.e.now()
	p, err := w.k.Graph.CreatePath(w.testR, testAttrs(port))
	w.createSamples = append(w.createSamples, int64(w.e.now().Sub(t0)))
	w.creates++
	if err != nil {
		w.createFailed++
		return
	}
	if w.rec != nil {
		w.rec.wrapPath(p)
	}
	binary.BigEndian.PutUint16(w.ephFrame[udpDstOff:], uint16(port))
	w.gen.send(w.ephFrame)
	w.ephSent++
	w.eng.After(time.Millisecond, func() {
		pathQueueCounts(&w.retired, p)
		p.Destroy()
	})
}

// instrument installs rec's wrappers once, on the first traced block.
func (w *rxWorld) instrument(rec *recorder) {
	if rec == nil || w.rec == rec {
		return
	}
	w.rec = rec
	rec.wrapDevice(w.k.Dev)
	for _, p := range w.stable {
		rec.wrapPath(p)
	}
}

func (w *rxWorld) block(rec *recorder) blockResult {
	w.instrument(rec)
	absorbed0, eph0, creates0, cfail0 := w.k.Test.Received, w.ephSent, w.creates, w.createFailed
	w.gen.start(w.pkts)
	t0 := w.e.now()
	drive(w.eng, rec, func() bool { return w.gen.done })
	run := w.e.now().Sub(t0)
	absorbed := w.k.Test.Received - absorbed0
	sent := w.pkts + w.ephSent - eph0
	r := blockResult{ops: absorbed, run: run}
	r.attempted = sent + w.creates - creates0
	r.failed = sent - absorbed + w.createFailed - cfail0
	return r
}

func (w *rxWorld) digest(h hash.Hash64) {
	mix(h, w.k.Test.Received, w.k.Test.Bytes, w.creates, int64(w.eng.Now()))
	for _, p := range w.stable {
		mix(h, int64(p.CPUTime()), p.Msgs[core.BWD])
	}
}

func (w *rxWorld) addCounts(c *counts) {
	kernelCounts(c, w.k)
	c.add(&w.retired)
	for _, p := range w.stable {
		pathQueueCounts(c, p)
	}
	ps := w.gen.pool.Stats()
	c[cFbufGets] += ps.Hits + ps.Misses
	c[cFbufExhausted] += ps.Exhausted + w.gen.getFailed
	c[cPktsSent] += w.gen.sent + w.ephSent
}

func (w *rxWorld) violations() []string {
	return flowCacheLaw("eth0", w.k.Dev.Flows)
}

// ---- video workloads --------------------------------------------------

// paperFPS is the Scout column of the paper's Table 1.
var paperFPS = map[string]float64{
	"Flower": 44.7, "Neptune": 49.9, "RedsNightmare": 67.1, "Canyon": 245.9,
}

const videoPort = 7000

type videoWorld struct {
	e     *env
	lossy bool
	eng   *sim.Engine
	k     *appliance.Kernel
	h     *host.Host
	clips []mpeg.ClipSpec
	prep  []*host.Prepared
	pass  int // passes per block
	rec   *recorder
	// queueLen sizes the path's queues, and with them the flow-control
	// window and the number of decoded frames that can wait for the display.
	queueLen int

	sum     hash.Hash64 // running digest of every clip played
	retired counts      // counters of destroyed paths and finished sources
	broken  []string

	// Simulated-time fidelity against the paper (video_maxrate only).
	errSum float64
	errN   int
}

func newVideoWorld(e *env, lossy bool) (world, error) {
	w := &videoWorld{e: e, lossy: lossy, sum: fnv.New64a(), pass: e.sc.maxratePasses, queueLen: 32}
	w.clips = mpeg.Clips
	if lossy {
		w.clips, w.pass = []mpeg.ClipSpec{mpeg.Neptune}, e.sc.lossyPasses
		// A repaired hole releases everything held behind it in one
		// execution; the output queue must take that burst of frames.
		w.queueLen = 256
	}
	w.eng = sim.New(e.seed)
	// The paper's 10 Mb/s Ethernet: serialization dominates the LAN delay.
	link := netdev.NewLink(w.eng, netdev.LinkConfig{BitsPerSec: 10_000_000, Delay: 20 * time.Microsecond})
	if lossy {
		link.InjectFaults(netdev.FaultPlan{Loss: 0.01})
	}
	k, err := bootKernel(w.eng, link, 2000) // a display fast enough never to limit a max-rate run
	if err != nil {
		return nil, err
	}
	w.k = k
	// The receiver must out-wait the sender's whole backoff chain (8 tries,
	// up to 500 ms apart), in time and in packets held meanwhile: at the
	// defaults (1 s, 256 packets) a retransmission that is itself lost
	// becomes a hole, and its group of pictures never comes out.
	k.MFLOW.HoldTimeout = 5 * time.Second
	k.MFLOW.RecentWindow = 1 << 13
	w.h = host.New(link, srcMAC, srcAddr)
	for _, c := range w.clips {
		if e.sc.clipFrames > 0 {
			c.Frames = e.sc.clipFrames
		}
		// Seed 1 reproduces the clip traces the paper tables were recorded
		// with (trace seed 11).
		w.prep = append(w.prep, host.PrepareClip(c, 0, 10+e.seed))
	}
	return w, nil
}

func (w *videoWorld) block(rec *recorder) blockResult {
	if rec != nil && w.rec != rec {
		w.rec = rec
		rec.wrapDevice(w.k.Dev)
	}
	var r blockResult
	t0 := w.e.now()
	for pass := 0; pass < w.pass; pass++ {
		for ci := range w.clips {
			frames, good := w.play(ci, rec)
			r.attempted += frames
			r.ops += good
		}
	}
	r.run = w.e.now().Sub(t0)
	r.failed = r.attempted - r.ops
	return r
}

// play streams clip ci once over a fresh path and returns (frames in the
// clip, frames that came out whole).
func (w *videoWorld) play(ci int, rec *recorder) (frames, good int64) {
	p, lport, err := w.k.CreateVideoPath(&appliance.VideoAttrs{
		Source:    inet.Participants{RemoteAddr: srcAddr, RemotePort: videoPort},
		FPS:       2000,
		CostModel: true,
		QueueLen:  w.queueLen,
		Sched:     "rr",
		Priority:  2, // the paper's default round-robin priority (§4.3)
		Reliable:  w.lossy,
	})
	if err != nil {
		w.broken = append(w.broken, "CreateVideoPath: "+err.Error())
		return 1, 0
	}
	if rec != nil {
		rec.wrapPath(p)
	}
	src, err := host.NewSource(w.h, host.SourceConfig{
		Prepared: w.prep[ci], SrcPort: videoPort, MaxRate: true, Retransmit: w.lossy,
	})
	if err != nil {
		w.broken = append(w.broken, "NewSource: "+err.Error())
		p.Destroy()
		return 1, 0
	}
	frames = int64(src.NumFrames())
	sink := w.k.Display.Sink(p, "DISPLAY")
	start := w.eng.Now()
	giveUp := start.Add(10 * time.Minute)
	src.Start(scoutAddr, lport)
	drive(w.eng, rec, func() bool { return sink.Displayed() >= frames || w.eng.Now() > giveUp })
	end := w.eng.Now()

	// Let the tail settle before the path goes away: an ack lost on the
	// wire is answered by a retransmission up to RTOMax (500 ms) later, and
	// a frame arriving after Destroy would count as a no-path drop.
	settle := 50 * time.Millisecond
	if w.lossy {
		settle = 600 * time.Millisecond
	}
	for {
		sent := src.PacketsSent
		until := w.eng.Now().Add(settle)
		drive(w.eng, rec, func() bool { return w.eng.Now() >= until })
		if src.PacketsSent == sent {
			break
		}
	}

	displayed := sink.Displayed()
	ci_, cp, _ := routers.MPEGCompleteByKind(p, "MPEG")
	good = ci_ + cp
	if displayed < good {
		good = displayed
	}
	_, doneAt := src.Done()
	mix(w.sum, ci_, cp, displayed, int64(p.CPUTime()), src.PacketsSent, src.AcksReceived, int64(doneAt), int64(end))

	pathQueueCounts(&w.retired, p)
	c := &w.retired
	c[cDispMissed] += sink.Missed()
	c[cDispLateSkips] += sink.LateSkips()
	c[cPktsSent] += src.PacketsSent
	c[cAcksReceived] += src.AcksReceived
	c[cRetransmits] += src.Retransmits
	c[cFastRetransmits] += src.FastRetransmits
	c[cRTOs] += src.RTOs
	if st, ok := mflow.StatsOf(p, "MFLOW"); ok {
		c[cGaps] += st.Gaps
		c[cAcksSent] += st.AcksSent
	}
	// Truncated clips (tiny scale) start up for most of their length and say
	// nothing about the paper's steady rates.
	if !w.lossy && w.e.sc.clipFrames == 0 && end > start {
		fps := float64(displayed) / end.Sub(start).Seconds()
		paper := paperFPS[w.clips[ci].Name]
		w.errSum += math.Abs(fps-paper) / paper
		w.errN++
	}
	p.Destroy()
	return frames, good
}

// paperErrPct is the mean relative distance between the simulated frame
// rates and the paper's, in percent. It is a simulated-time number checked
// against the paper, not against hardware.
func (w *videoWorld) paperErrPct() float64 {
	if w.errN == 0 {
		return 0
	}
	return 100 * w.errSum / float64(w.errN)
}

func (w *videoWorld) digest(h hash.Hash64) { mix(h, int64(w.sum.Sum64())) }

func (w *videoWorld) addCounts(c *counts) {
	kernelCounts(c, w.k)
	c.add(&w.retired)
}

// maxPaperErrPct is how far the simulated Table 1 may drift from the paper's
// before video_maxrate counts as wrong.
const maxPaperErrPct = 5.0

func (w *videoWorld) violations() []string {
	out := append(flowCacheLaw("eth0", w.k.Dev.Flows), w.broken...)
	if pct := w.paperErrPct(); pct > maxPaperErrPct {
		out = append(out, fmt.Sprintf("simulated frame rates are %.2f%% from the paper's Table 1, limit %v%%", pct, maxPaperErrPct))
	}
	return out
}

// ---- scale workload ---------------------------------------------------

// scaleFPS paces every stream slowly enough that the modelled decode CPU of
// one kernel's streams fits in its virtual CPU.
const scaleFPS = 5

// scaleClip is small (64x48) so the per-pixel display term stays small, with
// a short GOP so short clips still hold I and P frames.
var scaleClip = mpeg.ClipSpec{
	Name: "Scale", W: 64, H: 48, FPS: scaleFPS, GOP: 4, AvgPBits: 2000, Jitter: 0.2,
}

type scaleGroup struct {
	k     *appliance.Kernel
	paths []*core.Path
	srcs  []*host.Source
}

// scaleWorld builds and runs one whole world per block: many independent
// appliance kernels on a sim.Cluster, every 8th with its source across a
// cross-shard wire.
type scaleWorld struct {
	e      *env
	shards int
	prep   *host.Prepared
	sum    hash.Hash64
	total  counts
	broken []string
	last   []scaleGroup // the most recent world, kept reachable for the heap reading
}

func newScaleWorld(e *env, shards int) *scaleWorld {
	clip := scaleClip
	clip.Frames = e.sc.frames
	return &scaleWorld{e: e, shards: shards, sum: fnv.New64a(), prep: host.PrepareClip(clip, 1024, 10+e.seed)}
}

func (w *scaleWorld) block(rec *recorder) blockResult {
	w.last = nil
	runtime.GC() // drop the previous world before building the next

	const lookahead = time.Millisecond
	t0 := w.e.now()
	c := sim.NewCluster(w.e.seed, w.shards, lookahead)
	groups := make([]scaleGroup, w.e.sc.groups)
	for g := range groups {
		gr, err := w.bootGroup(c, g)
		if err != nil {
			w.broken = append(w.broken, err.Error())
			return blockResult{attempted: 1, failed: 1}
		}
		groups[g] = gr
	}
	setup := w.e.now().Sub(t0)
	if rec != nil {
		for _, gr := range groups {
			rec.wrapDevice(gr.k.Dev)
			for _, p := range gr.paths {
				rec.wrapPath(p)
			}
		}
	}

	// Fixed horizon: start stagger, the paced clip, and decode/ack slack.
	horizon := time.Duration(w.e.sc.frames)*time.Second/scaleFPS + 300*time.Millisecond
	t1 := w.e.now()
	if rec != nil {
		rec.begin(spStep) // a Cluster offers no Step; the whole run is the root
	}
	c.RunUntil(sim.Time(horizon))
	if rec != nil {
		rec.end()
	}
	r := blockResult{setup: setup, run: w.e.now().Sub(t1)}

	w.total[cEvents] += int64(c.EventsRun())
	for g := range groups {
		gr := &groups[g]
		// Shard engines are counted once through the cluster above.
		var kc counts
		kernelCounts(&kc, gr.k)
		kc[cEvents] = 0
		w.total.add(&kc)
		w.broken = append(w.broken, flowCacheLaw(fmt.Sprintf("group %d", g), gr.k.Dev.Flows)...)
		for i, p := range gr.paths {
			ci, cp, _ := routers.MPEGCompleteByKind(p, "MPEG")
			src := gr.srcs[i]
			_, doneAt := src.Done()
			mix(w.sum, ci, cp, int64(p.CPUTime()), src.PacketsSent, src.AcksReceived, int64(doneAt))
			r.ops += ci + cp
			pathQueueCounts(&w.total, p)
			w.total[cPktsSent] += src.PacketsSent
			w.total[cAcksReceived] += src.AcksReceived
			if sink := gr.k.Display.Sink(p, "DISPLAY"); sink != nil {
				w.total[cDispMissed] += sink.Missed()
				w.total[cDispLateSkips] += sink.LateSkips()
			}
			if st, ok := mflow.StatsOf(p, "MFLOW"); ok {
				w.total[cGaps] += st.Gaps
				w.total[cAcksSent] += st.AcksSent
			}
		}
	}
	r.attempted = int64(w.e.sc.groups * w.e.sc.pathsPerGroup * w.e.sc.frames)
	r.failed = r.attempted - r.ops
	w.last = groups
	return r
}

// bootGroup builds world g on its shard: a kernel, a wire, and one source
// per path.
func (w *scaleWorld) bootGroup(c *sim.Cluster, g int) (scaleGroup, error) {
	eng := c.Shard(g % c.Shards())
	var link *netdev.Link
	var h *host.Host
	if g%8 == 0 {
		// The source sits one shard over, so its whole stream crosses a
		// window barrier.
		far := c.Shard((g + 1) % c.Shards())
		link = netdev.NewCrossLink(c, int64(g)+1, eng, far,
			netdev.LinkConfig{BitsPerSec: 1_000_000_000, Delay: c.Lookahead()})
		h = host.NewOn(link, srcMAC, srcAddr, far)
	} else {
		link = netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 1_000_000_000, Delay: 20 * time.Microsecond})
		h = host.New(link, srcMAC, srcAddr)
	}
	cfg := appliance.DefaultConfig()
	cfg.MAC, cfg.Addr = scoutMAC, scoutAddr
	cfg.DisplayW, cfg.DisplayH = scaleClip.W, scaleClip.H
	cfg.RefreshHz = 30
	cfg.StarveAfter = -1 // many paths per CPU by design; no starvation log
	k, err := appliance.Boot(eng, link, cfg)
	if err != nil {
		return scaleGroup{}, err
	}
	gr := scaleGroup{k: k}
	for i := 0; i < w.e.sc.pathsPerGroup; i++ {
		port := uint16(videoPort + i)
		p, lport, err := k.CreateVideoPath(&appliance.VideoAttrs{
			Source:    inet.Participants{RemoteAddr: srcAddr, RemotePort: port},
			FPS:       scaleFPS,
			Frames:    w.e.sc.frames,
			CostModel: true,
			QueueLen:  8,
			Sched:     "rr",
			Priority:  2,
		})
		if err != nil {
			return scaleGroup{}, err
		}
		src, err := host.NewSource(h, host.SourceConfig{Prepared: w.prep, SrcPort: port, FPS: scaleFPS})
		if err != nil {
			return scaleGroup{}, err
		}
		// Stagger starts so ARP and first windows do not land on one
		// instant; the offsets depend only on the path index.
		start := sim.Time(time.Duration(i%32) * 500 * time.Microsecond)
		h.Engine().At(start, func() { src.Start(scoutAddr, lport) })
		gr.paths = append(gr.paths, p)
		gr.srcs = append(gr.srcs, src)
	}
	return gr, nil
}

func (w *scaleWorld) digest(h hash.Hash64) { mix(h, int64(w.sum.Sum64())) }
func (w *scaleWorld) addCounts(c *counts)  { c.add(&w.total) }
func (w *scaleWorld) violations() []string { return w.broken }
