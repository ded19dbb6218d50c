// Burst gates: batch classification must agree frame-for-frame with the
// reference walk (it may share, it may not lie), in-burst sharing must die
// the instant a control-plane change lands mid-burst, and a burst end to end
// must charge exactly what its frames handed over one at a time charge. E12
// in mpegbench is the seeded whole-kernel counterpart.
package scout_test

import (
	"math/rand"
	"testing"
	"time"

	"scout/internal/appliance"
	"scout/internal/core"
	"scout/internal/exp"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
	"scout/internal/sim"
)

// TestClassifyBurstDifferential: for random bursts of mutated frames, the
// batch classifier's decisions must equal the full walk on every frame,
// with mid-stream path churn between bursts.
func TestClassifyBurstDifferential(t *testing.T) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	p, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300))
	if err != nil {
		t.Fatal(err)
	}
	template := exp.BuildVideoFrame(k, 9300, 256).CopyOut()
	hdrLen := eth.HeaderLen + ip.HeaderLen + udp.HeaderLen

	rng := rand.New(rand.NewSource(13))
	frame := func(mutations int) *msg.Msg {
		f := make([]byte, len(template))
		copy(f, template)
		for n := mutations; n > 0; n-- {
			f[rng.Intn(hdrLen)] ^= byte(1 + rng.Intn(255))
		}
		return msg.New(f)
	}

	var cls []eth.BurstClass
	for round := 0; round < 300; round++ {
		burst := make([]*msg.Msg, 1+rng.Intn(16))
		for i := range burst {
			// Bias toward pristine frames so same-flow runs occur and the
			// memo actually shares; mutants exercise the ineligible and
			// no-path arms in between.
			burst[i] = frame(rng.Intn(3))
		}
		cls = k.ETH.ClassifyBurst(burst, cls[:0])
		if len(cls) != len(burst) {
			t.Fatalf("burst of %d produced %d classifications", len(burst), len(cls))
		}
		for i, m := range burst {
			pu, eu := k.ETH.ClassifyUncached(m)
			if cls[i].Path != pu || (cls[i].Err == nil) != (eu == nil) {
				t.Fatalf("frame %d of burst diverges: burst (%p, %v) vs walk (%p, %v)",
					i, cls[i].Path, cls[i].Err, pu, eu)
			}
			m.Free()
		}
		if round%50 == 49 {
			p.Delete()
			if p, err = k.Graph.CreatePath(testR, exp.TestPathAttrs(9300)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if k.ETH.Stats().BurstShared == 0 {
		t.Error("no frame ever resolved by in-burst sharing: differential degenerate")
	}
}

// TestBurstMemoInvalidationMidBurst pins the central burst-safety property:
// delivering a frame can synchronously run control-plane code (queue wake →
// dispatch), and a same-flow frame later in the burst must observe the
// change. Here the first enqueue destroys the path; with a stale memo the
// second frame would be enqueued onto the dead path — a misroute. The memo's
// generation check must force a re-resolution that finds no path.
func TestBurstMemoInvalidationMidBurst(t *testing.T) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	p, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300))
	if err != nil {
		t.Fatal(err)
	}
	q := p.IncomingQueue(k.ETH.Router().Name)
	if q == nil {
		t.Fatal("no incoming queue at the ETH end")
	}
	q.NotEmpty = func() { p.Delete() }

	f1 := exp.BuildVideoFrame(k, 9300, 64)
	f2 := exp.BuildVideoFrame(k, 9300, 64)
	base := k.ETH.Stats()
	k.Dev.OnReceiveBurst([]*msg.Msg{f1, f2})

	if !p.Dead() {
		t.Fatal("first enqueue did not destroy the path")
	}
	if q.Len() != 0 {
		t.Fatalf("dead path's queue holds %d messages: burst enqueued onto a destroyed path", q.Len())
	}
	st := k.ETH.Stats()
	if got := st.RxNoPath - base.RxNoPath; got != 1 {
		t.Errorf("RxNoPath delta = %d, want 1 (second frame must re-resolve and find no path)", got)
	}
	if got := st.BurstShared - base.BurstShared; got != 0 {
		t.Errorf("BurstShared delta = %d, want 0 (memo must die with the invalidation)", got)
	}
}

// TestClassifyBurstAllocFree extends the heap-escape audit to the batch
// classifier: a warm burst classification with a reused scratch slice must
// not allocate.
func TestClassifyBurstAllocFree(t *testing.T) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		t.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	if _, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300)); err != nil {
		t.Fatal(err)
	}
	burst := make([]*msg.Msg, 16)
	for i := range burst {
		burst[i] = exp.BuildVideoFrame(k, 9300, 256)
	}
	cls := make([]eth.BurstClass, 0, len(burst))
	k.ETH.ClassifyBurst(burst, cls[:0]) // warm the cache
	if allocs := testing.AllocsPerRun(100, func() {
		cls = k.ETH.ClassifyBurst(burst, cls[:0])
		for i := range cls {
			if cls[i].Err != nil {
				t.Fatal(cls[i].Err)
			}
		}
	}); allocs != 0 {
		t.Errorf("burst classify allocates %.0f times per burst, want 0", allocs)
	}
}

// burstWorld boots a kernel on a link so fast that back-to-back frames
// arrive at the same instant, with a traffic source device attached.
func burstWorld(t *testing.T) (*appliance.Kernel, *netdev.Device) {
	t.Helper()
	eng := sim.New(5)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 1 << 60})
	cfg := appliance.DefaultConfig()
	cfg.Tracing = true
	k, err := appliance.Boot(eng, link, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sender := netdev.NewDevice(link, netdev.MAC{2, 0, 0, 0, 0, 0x20}, nil)
	return k, sender
}

// videoPathAndFrames creates a traced video path and returns it with a
// frame template addressed to it.
func videoPathAndFrames(t *testing.T, k *appliance.Kernel) (*core.Path, []byte) {
	t.Helper()
	k.MFLOW.AckEvery = 1 << 30
	p, lport, err := k.CreateVideoPath(&appliance.VideoAttrs{
		Source:    inet.Participants{RemoteAddr: inet.Addr{10, 0, 0, 20}, RemotePort: 7000},
		FPS:       30,
		CostModel: true,
		QueueLen:  64,
		Trace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, buildContinuationFrame(k, uint16(lport))
}

// sendBurst transmits n same-flow frames back to back (same-instant
// arrivals on the fast link), seq advancing.
func sendBurst(sender *netdev.Device, k *appliance.Kernel, tmpl []byte, n int, seq *uint32) {
	for i := 0; i < n; i++ {
		f := make([]byte, len(tmpl))
		copy(f, tmpl)
		*seq++
		mflow.Header{Kind: mflow.KindData, Seq: *seq}.Put(
			f[eth.HeaderLen+ip.HeaderLen+udp.HeaderLen:])
		sender.Transmit(k.Cfg.MAC, msg.New(f))
	}
}

// TestBurstTraceSpansPerFrame: a multi-frame burst must still produce one
// queue observation per frame — spans nest per frame, never per burst.
func TestBurstTraceSpansPerFrame(t *testing.T) {
	k, sender := burstWorld(t)
	p, tmpl := videoPathAndFrames(t, k)

	const n = 12
	var seq uint32
	sendBurst(sender, k, tmpl, n, &seq)
	k.Eng.RunFor(time.Second)

	if bursts, frames := k.Dev.BurstStats(); bursts != 1 || frames != n {
		t.Fatalf("burst stats = (%d, %d), want (1, %d)", bursts, frames, n)
	}
	d, ok := p.IncomingDir(k.ETH.Router().Name)
	if !ok {
		t.Fatal("video path has no ETH end")
	}
	qm := k.Tracer.Path(p.PID).Queues[core.QIn(d)]
	if qm.Enqueued != n {
		t.Errorf("traced enqueues = %d, want %d (one per frame)", qm.Enqueued, n)
	}
	if qm.Dequeued != n {
		t.Errorf("traced dequeues = %d, want %d", qm.Dequeued, n)
	}
	if qm.Wait.Count != n {
		t.Errorf("queue-wait observations = %d, want %d (one span per frame)", qm.Wait.Count, n)
	}
}

// TestBurstEndToEndEquivalence streams dense same-instant bursts through two
// kernels, one of which has its burst handler wrapped to take each burst one
// frame at a time (so nothing is ever shared in-burst), and requires
// identical virtual-time charges: a burst is its frames in order, and the
// memo changes which host code runs, never an outcome.
func TestBurstEndToEndEquivalence(t *testing.T) {
	type outcome struct {
		cpu      time.Duration
		irq      time.Duration
		busy     time.Duration
		rxFrames int64
		end      sim.Time
	}
	run := func(frameAtATime bool) outcome {
		k, sender := burstWorld(t)
		if frameAtATime {
			rxb := k.Dev.OnReceiveBurst
			k.Dev.OnReceiveBurst = func(frames []*msg.Msg) {
				for i := range frames {
					rxb(frames[i : i+1])
				}
			}
		}
		p, tmpl := videoPathAndFrames(t, k)
		var seq uint32
		// Three bursts at distinct instants, 24 same-instant frames each.
		for i := 0; i < 3; i++ {
			k.Eng.At(sim.Time(time.Duration(i)*time.Millisecond), func() {
				sendBurst(sender, k, tmpl, 24, &seq)
			})
		}
		k.Eng.RunFor(time.Second)
		st := k.CPU.Stats()
		return outcome{
			cpu:      p.CPUTime(),
			irq:      st.IRQ,
			busy:     st.Busy,
			rxFrames: k.ETH.Stats().RxFrames,
			end:      k.Eng.Now(),
		}
	}
	burst, plain := run(false), run(true)
	if burst != plain {
		t.Fatalf("a burst diverges from its frames taken one at a time:\nburst: %+v\nplain: %+v", burst, plain)
	}
	if burst.rxFrames != 72 {
		t.Fatalf("delivered %d frames, want 72", burst.rxFrames)
	}
}

// TestBurstReceiveSharesResolution: a same-flow burst through the real
// receive path resolves once and shares — the flow cache sees one lookup
// run, not one per frame.
func TestBurstReceiveSharesResolution(t *testing.T) {
	k, sender := burstWorld(t)
	_, tmpl := videoPathAndFrames(t, k)

	// Warm: first burst pays one miss (walk + insert); the rest share.
	var seq uint32
	sendBurst(sender, k, tmpl, 16, &seq)
	k.Eng.RunFor(time.Second)

	st := k.ETH.Stats()
	if st.BurstShared < 14 {
		t.Errorf("burst shared %d of 16 same-flow frames; want >= 14", st.BurstShared)
	}
	fc := k.Dev.Flows.Stats()
	if lookups := fc.Hits + fc.Misses; lookups > 2 {
		t.Errorf("flow cache consulted %d times for one same-flow burst, want <= 2", lookups)
	}
}
