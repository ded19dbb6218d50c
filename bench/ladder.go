package main

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"time"

	"scout/internal/core"
	"scout/internal/fbuf"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/ip"
	"scout/internal/proto/udp"
	"scout/internal/sched"
	"scout/internal/sim"
)

// The ladder times direct calls into each layer's public functions, on
// inputs shaped like the workloads', so that a change in an end-to-end
// number can be traced to the rung that moved. Each rung runs ladderReps
// times and reports its median.
const ladderReps = 3

var errLadder = errors.New("a ladder rung's call into a layer failed")

// rung runs body ladderReps times. body does about n ops and returns how
// many it did. rung returns the median ns per op, and the mallocs per op of
// the last repetition.
func (e *env) rung(n int, body func(n int) int) (nsPerOp, allocsPerOp float64) {
	var ms runtime.MemStats
	ns := make([]float64, 0, ladderReps)
	for r := 0; r < ladderReps; r++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := e.now()
		did := body(n)
		d := e.now().Sub(t0)
		runtime.ReadMemStats(&ms)
		if did == 0 {
			continue
		}
		ns = append(ns, float64(d)/float64(did))
		allocsPerOp = float64(ms.Mallocs-m0) / float64(did)
	}
	return median(ns), allocsPerOp
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i])
}

// runLadder measures every rung into v.
func (e *env) runLadder(v values) error {
	n := e.sc.ladder
	e.ladderSim(v, n)
	e.ladderBuffers(v, n)
	e.ladderSched(v, n)
	e.ladderLink(v, n)
	e.ladderGenerator(v, n)
	if err := e.ladderKernel(v, n); err != nil {
		return err
	}
	return e.ladderSetup(v)
}

// selfRescheduling keeps k events pending on eng: each one re-arms itself a
// pseudo-random distance (mean ≈512 ns) ahead when it fires.
func selfRescheduling(eng *sim.Engine, k int) {
	x := uint64(eng.Seed())*2862933555777941757 + 3037000493
	for i := 0; i < k; i++ {
		var fn func()
		fn = func() {
			x = x*2862933555777941757 + 3037000493
			eng.After(time.Duration(1+x>>54), fn)
		}
		eng.After(time.Duration(i+1), fn)
	}
}

func steps(eng *sim.Engine) func(n int) int {
	return func(n int) int {
		for i := 0; i < n; i++ {
			eng.Step()
		}
		return n
	}
}

func (e *env) ladderSim(v values, n int) {
	small := sim.New(e.seed)
	selfRescheduling(small, 16)
	v["sim.event_ns_heap16"], v["sim.event_allocs"] = e.rung(n, steps(small))

	big := sim.New(e.seed)
	selfRescheduling(big, 1<<16)
	v["sim.event_ns_heap64k"], _ = e.rung(n, steps(big))

	c := sim.NewCluster(e.seed, 1, time.Millisecond)
	selfRescheduling(c.Shard(0), 16)
	v["sim.cluster_event_ns"], _ = e.rung(n, func(n int) int {
		// 16 pending events ≈512 ns apart: n*32 ns of virtual time holds
		// about n of them.
		before := c.EventsRun()
		c.RunFor(time.Duration(n) * 32)
		return int(c.EventsRun() - before)
	})
}

func (e *env) ladderBuffers(v values, n int) {
	buf := make([]byte, frameLen)
	v["msg.new_free_ns"], _ = e.rung(n, func(n int) int {
		for i := 0; i < n; i++ {
			msg.New(buf).Free()
		}
		return n
	})
	pool := fbuf.NewPool(frameLen, 0, 64, 0)
	v["fbuf.get_release_ns"], _ = e.rung(n, func(n int) int {
		for i := 0; i < n; i++ {
			m, err := pool.Get(frameLen)
			if err != nil {
				return 0
			}
			m.Free()
		}
		return n
	})
	const burst = 64
	var arena msg.Arena
	out := make([]*msg.Msg, 0, burst)
	v["fbuf.getburst_ns_per_buf"], _ = e.rung(n, func(n int) int {
		for i := 0; i < n; i += burst {
			var err error
			out, err = pool.GetBurst(&arena, out[:0], burst, frameLen)
			if err != nil {
				return 0
			}
			for _, m := range out {
				m.Free()
			}
		}
		arena.Release()
		return (n + burst - 1) / burst * burst
	})
	q := core.NewQueue(32)
	v["core.queue.enq_deq_ns"], _ = e.rung(n, func(n int) int {
		for i := 0; i < n; i++ {
			q.Enqueue(buf)
			q.Dequeue()
		}
		return n
	})
}

func (e *env) ladderSched(v values, n int) {
	eng := sim.New(e.seed)
	cpu := sched.New(eng)
	sched.AddDefaultPolicies(cpu, 8, 50, 50)
	th := cpu.NewThread("rung", sched.PolicyRR, func(*sched.Thread) (time.Duration, func()) {
		return time.Microsecond, nil
	})
	v["sched.wake_dispatch_ns"], _ = e.rung(n, func(n int) int {
		for i := 0; i < n; i++ {
			th.Wake()  // idle CPU: dispatches at once
			eng.Step() // retires the execution
		}
		return n
	})
	v["sched.interrupt_ns"], _ = e.rung(n, func(n int) int {
		for i := 0; i < n; i++ {
			cpu.Interrupt(time.Microsecond, nil)
			eng.Step() // ends the busy period the handler cost opened
		}
		return n
	})
}

// ladderLink times one frame across the wire: transmit, the delivery event,
// and the receiving device's hand-off to a handler that frees it.
func (e *env) ladderLink(v values, n int) {
	eng := sim.New(e.seed)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 1_000_000_000, Delay: 20 * time.Microsecond})
	tx := netdev.NewDevice(link, srcMAC, nil)
	rx := netdev.NewDevice(link, scoutMAC, nil)
	rx.OnReceive = func(m *msg.Msg) { m.Free() }
	pool := fbuf.NewPool(frameLen, 0, 64, 0)
	v["netdev.link_tx_ns"], v["netdev.link_tx_allocs"] = e.rung(n, func(n int) int {
		for i := 0; i < n; i++ {
			m, err := pool.Get(frameLen)
			if err != nil {
				return 0
			}
			tx.Transmit(scoutMAC, m)
			eng.Step()
		}
		return n
	})
}

// ladderGenerator runs the packet workloads' generator into a device with no
// handler, so pkts_per_s and allocs_per_op can be read net of the load
// generator (and of the wire, which it cannot avoid).
func (e *env) ladderGenerator(v values, n int) {
	eng := sim.New(e.seed)
	link := netdev.NewLink(eng, netdev.LinkConfig{
		BitsPerSec: 1_000_000_000, Delay: 20 * time.Microsecond, Jitter: 100 * time.Microsecond,
	})
	netdev.NewDevice(link, scoutMAC, nil) // handlerless: frames are counted and freed
	templates := make([][]byte, 64)
	for i := range templates {
		templates[i] = testFrame(uint16(rxBasePort + i))
	}
	g := newGenerator(eng, netdev.NewDevice(link, srcMAC, nil), templates, func(i int64) int { return int(i / 8 % 64) })
	v["bench.generator_ns_per_pkt"], v["bench.generator_allocs_per_pkt"] = e.rung(n, func(n int) int {
		g.start(int64(n))
		drive(eng, nil, func() bool { return g.done })
		return n
	})
}

// ladderKernel times the classifier, the flow cache, a fused TEST path and
// path creation on a booted appliance.
func (e *env) ladderKernel(v values, n int) error {
	eng := sim.New(e.seed)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 1_000_000_000, Delay: 20 * time.Microsecond})
	k, err := bootKernel(eng, link, 0)
	if err != nil {
		return err
	}
	host.New(link, srcMAC, srcAddr) // answers the appliance's ARP request
	testR, _ := k.Graph.Router("TEST")
	// 1024 flows as in rx_cold; the first 64 are rx_hot's.
	const flows, hot = 1024, 64
	paths := make([]*core.Path, flows)
	frames := make([]*msg.Msg, flows)
	keys := make([]core.FlowKey, flows)
	for i := range paths {
		if paths[i], err = k.Graph.CreatePath(testR, testAttrs(rxBasePort+i)); err != nil {
			return err
		}
		f := testFrame(uint16(rxBasePort + i))
		keys[i], _ = netdev.FlowKeyOf(scoutMAC, f)
		frames[i] = msg.New(f)
	}
	eng.RunFor(10 * time.Millisecond) // ARP resolves

	failed := false
	classify := func(span int, run int) func(n int) int {
		return func(n int) int {
			for i := 0; i < n; i++ {
				if _, err := k.ETH.Classify(frames[i/run%span]); err != nil {
					failed = true
				}
			}
			return n
		}
	}
	v["eth.classify_hit_ns"], _ = e.rung(n, classify(hot, 8))
	// scoutlint's flowguard keeps Insert and the invalidations inside the
	// control plane, so the cache is driven through the classifier: Lookup
	// directly, insert-and-evict as the cold classifier minus the walk it
	// also pays. Invalidation is part of the create and destroy rungs below.
	v["core.flowcache.lookup_ns"], _ = e.rung(n, func(n int) int {
		for i := 0; i < n; i++ {
			if _, hit := k.Dev.Flows.Lookup(keys[i/8%hot]); !hit {
				failed = true
			}
		}
		return n
	})
	v["eth.classify_miss_ns"], _ = e.rung(n, classify(flows, 1))
	v["eth.classify_walk_ns"], _ = e.rung(n, func(n int) int {
		for i := 0; i < n; i++ {
			if _, err := k.ETH.ClassifyUncached(frames[i%flows]); err != nil {
				failed = true
			}
		}
		return n
	})
	v["core.flowcache.insert_evict_ns"] = math.Max(0, v["eth.classify_miss_ns"]-v["eth.classify_walk_ns"])
	// A burst as rx_hot's wire delivers it: runs of 8 frames per flow.
	burst := make([]*msg.Msg, 0, 64)
	for i := 0; i < cap(burst); i++ {
		burst = append(burst, frames[i/8])
	}
	cls := make([]eth.BurstClass, 0, len(burst))
	v["eth.classify_burst_ns_per_pkt"], _ = e.rung(n, func(n int) int {
		did := 0
		for ; did < n; did += len(burst) {
			cls = k.ETH.ClassifyBurst(burst, cls[:0])
			if cls[0].Err != nil {
				failed = true
			}
		}
		return did
	})

	// One frame up a fused TEST path. OnMsg keeps the frame, so the rung can
	// restore the view the stages popped and reuse it.
	const popped = eth.HeaderLen + ip.HeaderLen + udp.HeaderLen
	k.Test.OnMsg = func(*core.Path, *msg.Msg) {}
	v["core.path.inject_ns"], _ = e.rung(n, func(n int) int {
		p, m := paths[0], frames[0]
		for i := 0; i < n; i++ {
			if err := p.Inject(core.BWD, m); err != nil {
				failed = true
			}
			m.Push(popped)
			p.TakeExecCost()
		}
		return n
	})
	k.Test.OnMsg = nil

	// Path creation and destruction in steady state, as path_churn does
	// them: the cache holds 32 flows for the bind and the destroy to
	// invalidate, and the engine runs every 256 ops so deferred teardown
	// work does not pile up.
	var createNs, destroyNs time.Duration
	creates := n / 40
	_, v["core.path.create_allocs"] = e.rung(creates, func(n int) int {
		createNs, destroyNs = 0, 0
		for i := 0; i < n; i++ {
			classify(32, 1)(32)
			t0 := e.now()
			p, err := k.Graph.CreatePath(testR, testAttrs(churnBasePort+i%churnPorts))
			t1 := e.now()
			if err != nil {
				failed = true
				continue
			}
			p.Destroy()
			createNs += t1.Sub(t0)
			destroyNs += e.now().Sub(t1)
			if i%256 == 255 {
				eng.RunFor(time.Millisecond)
			}
		}
		return n
	})
	v["core.path.create_us"] = float64(createNs) / float64(creates) / 1e3
	v["core.path.destroy_us"] = float64(destroyNs) / float64(creates) / 1e3
	if failed {
		return errLadder
	}
	return nil
}

// ladderSetup times the two big pieces of world construction.
func (e *env) ladderSetup(v values) error {
	clip := mpeg.Neptune
	if e.sc.clipFrames > 0 {
		clip.Frames = e.sc.clipFrames
	}
	ms := make([]float64, 0, ladderReps)
	for r := 0; r < ladderReps; r++ {
		t0 := e.now()
		host.PrepareClip(clip, 0, 10+e.seed)
		ms = append(ms, float64(e.now().Sub(t0))/1e6)
	}
	v["host.prepare_clip_ms"] = median(ms)

	var bootErr error
	boots := e.sc.ladder / 1000
	ns, _ := e.rung(boots, func(n int) int {
		for i := 0; i < n; i++ {
			eng := sim.New(e.seed)
			link := netdev.NewLink(eng, netdev.LinkConfig{})
			if _, err := bootKernel(eng, link, 0); err != nil {
				bootErr = err
			}
		}
		return n
	})
	v["appliance.boot_us"] = ns / 1e3
	return bootErr
}
