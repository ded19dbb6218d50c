// Fast-path gates: the flow cache must never misroute — for any frame the
// cached classification agrees with the full hop-by-hop walk (it may miss,
// it may not lie) — and the steady-state receive path must not allocate.
// These are the acceptance tests of the fast-path engine (DESIGN.md, "Fast
// path & flow cache"); E12 in mpegbench is the end-to-end counterpart.
package scout_test

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"scout/internal/appliance"
	"scout/internal/core"
	"scout/internal/exp"
	"scout/internal/fbuf"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
	"scout/internal/sim"
)

// diffClassify asserts the differential property on one frame: the cached
// classifier and the reference walk agree on the path (or both fail).
func diffClassify(t *testing.T, k *appliance.Kernel, m *msg.Msg) {
	t.Helper()
	pc, ec := k.ETH.Classify(m)
	pu, eu := k.ETH.ClassifyUncached(m)
	if pc != pu || (ec == nil) != (eu == nil) {
		t.Fatalf("classification diverges: cached (%p, %v) vs walk (%p, %v)\nframe: % x",
			pc, ec, pu, eu, m.Bytes())
	}
	m.Free()
}

// TestFlowCacheDifferential drives randomized header mutations and
// mid-stream path destroy/recreate through both classifiers. Mutations hit
// every classification decision: destination MAC (not for us), ether type
// (not IP), IP header bytes (checksum breaks → cache-ineligible), ports
// (different flow → miss and usually no path). A destroyed path must vanish
// from the cache before the next lookup — a hit on a dead path is a
// misroute, the one failure the cache may never produce.
func TestFlowCacheDifferential(t *testing.T) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	if k.Dev.Flows == nil {
		t.Fatal("flow cache disabled in default boot")
	}
	testR, _ := k.Graph.Router("TEST")
	p, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300))
	if err != nil {
		t.Fatal(err)
	}
	template := exp.BuildVideoFrame(k, 9300, 256).CopyOut()
	hdrLen := eth.HeaderLen + ip.HeaderLen + udp.HeaderLen

	rng := rand.New(rand.NewSource(7))
	mutate := func() *msg.Msg {
		f := make([]byte, len(template))
		copy(f, template)
		for n := rng.Intn(4); n > 0; n-- {
			f[rng.Intn(hdrLen)] ^= byte(1 + rng.Intn(255))
		}
		return msg.New(f)
	}
	pristine := func() *msg.Msg {
		f := make([]byte, len(template))
		copy(f, template)
		return msg.New(f)
	}

	for i := 0; i < 4000; i++ {
		diffClassify(t, k, mutate())
		if i%500 == 499 {
			// Mid-stream churn: the path dies, the binding goes away, and
			// any cached entry for its flow must die with it.
			p.Delete()
			diffClassify(t, k, pristine())
			if p, err = k.Graph.CreatePath(testR, exp.TestPathAttrs(9300)); err != nil {
				t.Fatal(err)
			}
			diffClassify(t, k, pristine())
		}
	}

	st := k.Dev.Flows.Stats()
	if st.Hits == 0 || st.Inserts == 0 {
		t.Errorf("cache never engaged: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Errorf("path churn caused no invalidations: %+v", st)
	}
}

// TestFlowCacheDifferentialUnderCorruption repeats the differential check on
// frames that crossed a real link with an adversarial fault plan: corruption
// (a flipped byte past the Ethernet header), duplication and reordering. The
// device's burst handler is replaced by the checker, so every delivered frame
// — damaged or not — is classified both ways.
func TestFlowCacheDifferentialUnderCorruption(t *testing.T) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	if _, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300)); err != nil {
		t.Fatal(err)
	}
	template := exp.BuildVideoFrame(k, 9300, 256).CopyOut()

	k.Link.InjectFaults(netdev.FaultPlan{Corrupt: 0.5, Dup: 0.1, Reorder: 0.1})
	sender := netdev.NewDevice(k.Link, netdev.MAC{2, 0, 0, 0, 0, 0x77}, nil)

	seen := 0
	k.Dev.OnReceiveBurst = func(frames []*msg.Msg) {
		for _, m := range frames {
			seen++
			diffClassify(t, k, m)
		}
	}
	for i := 0; i < 500; i++ {
		f := make([]byte, len(template))
		copy(f, template)
		mflow.Header{Kind: mflow.KindData, Seq: uint32(i + 1)}.Put(
			f[eth.HeaderLen+ip.HeaderLen+udp.HeaderLen:])
		sender.Transmit(k.Cfg.MAC, msg.New(f))
	}
	// Bounded run: the kernel's display refresh ticker keeps the event queue
	// non-empty forever, so Run() would never return. A virtual second is
	// orders of magnitude past the last delivery.
	k.Eng.RunFor(time.Second)
	if seen < 500 {
		t.Fatalf("only %d frames delivered", seen)
	}
}

// buildContinuationFrame assembles a full Ethernet frame carrying a
// mid-frame ALF continuation packet: it advances the MPEG header decoder's
// bit count without completing a frame, so the whole ETH→IP→UDP→MFLOW→MPEG
// chain runs with no per-frame work (no display.Frame) — the steady state
// the zero-alloc gate measures. The MFLOW header is (re)written by the
// caller per injection, seq advancing.
func buildContinuationFrame(k *appliance.Kernel, dstPort uint16) []byte {
	alf := (&mpeg.Packet{
		FrameNo: 1, Kind: mpeg.FrameI, QScale: 2, MBW: 4, MBH: 4,
		MBStart: 0, MBCount: 0, TotalMB: 16, Data: make([]byte, 64),
	}).Marshal()
	total := eth.HeaderLen + ip.HeaderLen + udp.HeaderLen + mflow.HeaderLen + len(alf)
	f := make([]byte, total)
	eth.Header{Dst: k.Cfg.MAC, Src: netdev.MAC{2, 0, 0, 0, 0, 0x20}, Type: inet.EtherTypeIP}.Put(f)
	ip.Header{
		TotalLen: uint16(total - eth.HeaderLen),
		ID:       1,
		TTL:      64,
		Proto:    inet.ProtoUDP,
		Src:      inet.Addr{10, 0, 0, 20},
		Dst:      k.Cfg.Addr,
	}.Put(f[eth.HeaderLen:])
	udp.Header{
		SrcPort: 7000, DstPort: dstPort,
		Length: uint16(udp.HeaderLen + mflow.HeaderLen + len(alf)),
	}.Put(f[eth.HeaderLen+ip.HeaderLen:])
	// Zero UDP checksum = unchecked: the gate measures delivery, and the
	// checksummed variant is covered by the E4/E12 equivalence runs.
	binary.BigEndian.PutUint16(f[eth.HeaderLen+ip.HeaderLen+6:], 0)
	copy(f[eth.HeaderLen+ip.HeaderLen+udp.HeaderLen+mflow.HeaderLen:], alf)
	return f
}

// TestReceivePathZeroAlloc is the zero-alloc gate: one steady-state frame
// through the fused ETH→IP→UDP→MFLOW→MPEG receive chain, from an fbuf pool
// buffer, must not touch the heap. Acks are pushed out of the measured loop
// (they recycle through their own pool and are exercised elsewhere). The
// frame's view and refcount cell ride the pool's free list with its buffer,
// so the count is the same under the race detector and across collections.
func TestReceivePathZeroAlloc(t *testing.T) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	k.MFLOW.AckEvery = 1 << 30
	p, lport, err := k.CreateVideoPath(&appliance.VideoAttrs{
		Source:    inet.Participants{RemoteAddr: inet.Addr{10, 0, 0, 20}, RemotePort: 7000},
		FPS:       30,
		CostModel: true,
		QueueLen:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Fused() {
		t.Fatal("video path not fused")
	}
	tmpl := buildContinuationFrame(k, uint16(lport))

	pool := fbuf.NewPool(len(tmpl), 64, 8, 0)
	seq := uint32(0)
	inject := func() {
		m, err := pool.Get(len(tmpl))
		if err != nil {
			t.Fatal(err)
		}
		b := m.Bytes()
		copy(b, tmpl)
		seq++
		mflow.Header{Kind: mflow.KindData, Seq: seq}.Put(
			b[eth.HeaderLen+ip.HeaderLen+udp.HeaderLen:])
		if err := p.Inject(core.BWD, m); err != nil {
			t.Fatal(err)
		}
	}
	inject() // prime decoder state and pools before measuring
	if allocs := testing.AllocsPerRun(100, inject); allocs != 0 {
		t.Errorf("steady-state receive allocates %.0f times per frame, want 0", allocs)
	}
}

// TestGeneratedTrafficZeroAlloc gates the packet loop around the receive
// path: a raw NIC fed by a self-rescheduling After generator, a jittered link
// whose no-overtaking clamp lands several frames on one instant, the burst
// classifier, and eight TEST paths taking runs of four. Once warm a packet
// allocates nothing anywhere: not its generator event, not the link's
// arrival event, not its receive.
func TestGeneratedTrafficZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool bypass its caches")
	}
	eng := sim.New(3)
	link := netdev.NewLink(eng, netdev.LinkConfig{
		BitsPerSec: 1_000_000_000, Delay: 20 * time.Microsecond, Jitter: 100 * time.Microsecond,
	})
	k, err := appliance.Boot(eng, link, appliance.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A host, so that the appliance's ARP requests are answered; the
	// generator transmits through its raw device.
	src := host.New(link, netdev.MAC{2, 0, 0, 0, 0, 0x20}, inet.Addr{10, 0, 0, 20})
	testR, _ := k.Graph.Router("TEST")
	frames := make([][]byte, 8)
	for i := range frames {
		if _, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300+i)); err != nil {
			t.Fatal(err)
		}
		frames[i] = exp.BuildVideoFrame(k, uint16(9300+i), 0).CopyOut()
	}
	pool := fbuf.NewPool(len(frames[0]), 0, 512, 0)
	sent := 0
	var fire func()
	fire = func() {
		m, err := pool.Get(len(frames[0]))
		if err != nil {
			t.Fatal(err)
		}
		copy(m.Bytes(), frames[sent/4%len(frames)])
		src.Dev.Transmit(k.Cfg.MAC, m)
		sent++
		eng.After(16*time.Microsecond, fire)
	}
	eng.At(0, fire)
	packet := func() {
		for n := sent; sent == n; {
			eng.Step()
		}
	}
	for i := 0; i < 5000; i++ { // size the queues, rings and free lists
		packet()
	}
	if allocs := testing.AllocsPerRun(2000, packet); allocs != 0 {
		t.Errorf("steady-state generated traffic allocates %.0f times per packet, want 0", allocs)
	}
	if got, want := k.Test.Received, int64(sent)-100; got < want {
		t.Fatalf("TEST paths absorbed %d of %d packets sent", got, sent)
	}
	if bursts, n := k.Dev.BurstStats(); n <= bursts {
		t.Fatalf("%d frames in %d bursts: the jitter never batched a burst", n, bursts)
	}
}

// TestVideoStreamAllocsPerFrame gates the whole data path, not just the
// receive side: one Neptune cost-model stream at maximum rate — source host,
// wire, kernel, scheduler, display, acks back — boot and clip preparation
// included. What remains per frame is the display's frame; events,
// completions, timers, header copies, the sender's pooled packets and the
// acks it reads in place are free (1.4 measured). Before events were re-armed
// in place and packets built once this read 103; with a GC-owned message per
// packet, 19.5.
func TestVideoStreamAllocsPerFrame(t *testing.T) {
	const budget = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fps := exp.ScoutMaxRate(mpeg.Neptune, false)
	runtime.ReadMemStats(&after)
	if fps <= 0 {
		t.Fatal("stream displayed nothing")
	}
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(mpeg.Neptune.Frames)
	t.Logf("%.1f allocations per displayed frame", perFrame)
	if perFrame > budget {
		t.Errorf("video stream allocates %.1f times per displayed frame, budget %d", perFrame, budget)
	}
}

// TestClassifyAllocFree locks in the heap-escape audit of the classification
// walk (eth/ip/udp Parse and Peek): neither the cache-hit lookup nor the
// full reference walk may allocate per frame.
func TestClassifyAllocFree(t *testing.T) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	if _, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300)); err != nil {
		t.Fatal(err)
	}
	m := exp.BuildVideoFrame(k, 9300, 1024)
	if _, err := k.ETH.Classify(m); err != nil { // warm the cache
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := k.ETH.Classify(m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("cache-hit classify allocates %.0f times per frame, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := k.ETH.ClassifyUncached(m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("classification walk allocates %.0f times per frame, want 0", allocs)
	}
}

// TestPathCreateAllocs pins the allocation count of §3.6's path creation
// (BenchmarkE1_PathCreate's loop): a TEST/UDP/IP/ETH path created and
// deleted costs 58 allocations, the same with and without the race detector.
func TestPathCreateAllocs(t *testing.T) {
	const budget = 58
	k, err := exp.NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	port := 10000
	allocs := testing.AllocsPerRun(100, func() {
		p, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(port))
		if err != nil {
			t.Fatal(err)
		}
		p.Delete()
		port++
	})
	if allocs > budget {
		t.Errorf("path create + delete allocates %.0f times, budget %d", allocs, budget)
	}
}
