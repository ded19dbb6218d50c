package main

// counts holds the layers' public counters, indexed by the constants below.
type counts [nCounters]int64

const (
	cEvents = iota
	cRxFrames
	cRxDropped
	cLinkDropped
	cBursts
	cBurstFrames
	cEthNoPath
	cEthQueueFull
	cEthBurstShared
	cFcHits
	cFcMisses
	cFcInserts
	cFcEvictions
	cFcInvalidations
	cFcDeadLookups
	cQDropped
	cQShed
	cDispatches
	cInterrupts
	cBusyNs
	cIrqNs
	cRetransmits
	cFastRetransmits
	cRTOs
	cGaps
	cAcksSent
	cDispMissed
	cDispLateSkips
	cPktsSent
	cAcksReceived
	cFbufGets
	cFbufExhausted
	cCopyBytes
	nCounters
)

func (c *counts) add(o *counts) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c *counts) sub(o *counts) counts {
	var d counts
	for i := range c {
		d[i] = c[i] - o[i]
	}
	return d
}

// metricDef is one metric of BENCHMARK.json. bound is 0 for per-layer
// metrics, which have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists what a user of the simulator sees: how fast a workload
// runs, what it allocates and holds, and how long the world takes to build.
// The process's peak RSS is not among them: it follows how far the
// concurrent GC lets the heap overshoot, which on a shared host moves by a
// quarter from run to run, so it is reported per layer, without a bound.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"bytes_per_op", "B", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics in output order. Every traced run
// reports all of them; one that does not apply to a workload reads 0.
var perLayer = []metricDef{
	// Exact counts from public counters, untraced pass.
	{name: "sim.events_per_op", unit: "count", better: "lower"},
	{name: "sim.events_per_s", unit: "1/s", better: "higher"},
	{name: "netdev.rx_frames_per_op", unit: "count", better: "lower"},
	{name: "netdev.rx_dropped", unit: "count", better: "lower"},
	{name: "netdev.link_dropped_per_op", unit: "count", better: "lower"},
	{name: "netdev.bursts_per_op", unit: "count", better: "lower"},
	{name: "netdev.frames_per_burst", unit: "count", better: "higher"},
	{name: "eth.rx_no_path", unit: "count", better: "lower"},
	{name: "eth.rx_queue_full", unit: "count", better: "lower"},
	{name: "eth.burst_shared_per_op", unit: "count", better: "higher"},
	{name: "core.flowcache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.flowcache.inserts_per_op", unit: "count", better: "lower"},
	{name: "core.flowcache.evictions_per_op", unit: "count", better: "lower"},
	{name: "core.flowcache.invalidations_per_op", unit: "count", better: "lower"},
	{name: "core.flowcache.dead_lookups", unit: "count", better: "lower"},
	{name: "core.queue.dropped", unit: "count", better: "lower"},
	{name: "core.queue.shed", unit: "count", better: "lower"},
	{name: "sched.dispatches_per_op", unit: "count", better: "lower"},
	{name: "sched.interrupts_per_op", unit: "count", better: "lower"},
	{name: "sched.irq_share", unit: "ratio", better: "lower"},
	{name: "mflow.retransmits_per_op", unit: "count", better: "lower"},
	{name: "mflow.fast_retransmits_per_op", unit: "count", better: "lower"},
	{name: "mflow.rtos_per_op", unit: "count", better: "lower"},
	{name: "mflow.gaps", unit: "count", better: "lower"},
	{name: "mflow.acks_per_op", unit: "count", better: "lower"},
	{name: "fbuf.gets_per_op", unit: "count", better: "lower"},
	{name: "fbuf.exhausted", unit: "count", better: "lower"},
	{name: "msg.copy_bytes_per_op", unit: "B", better: "lower"},
	{name: "display.missed_per_op", unit: "count", better: "lower"},
	{name: "display.late_skips_per_op", unit: "count", better: "lower"},
	{name: "host.packets_sent_per_op", unit: "count", better: "lower"},
	{name: "host.acks_received_per_op", unit: "count", better: "lower"},
	{name: "core.path.create_us_p50", unit: "us", better: "lower"},
	{name: "core.path.create_us_p99", unit: "us", better: "lower"},
	{name: "fidelity.paper_fps_err_pct", unit: "%", better: "lower"},
	{name: "bench.generator_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "bench.generator_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "bench.timed_blocks", unit: "count", better: "higher"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	// Traced pass: wall self time per op.
	{name: "sim.step.self_ns", unit: "ns", better: "lower"},
	{name: "eth.rx.self_ns", unit: "ns", better: "lower"},
	{name: "stage.ETH.self_ns", unit: "ns", better: "lower"},
	{name: "stage.IP.self_ns", unit: "ns", better: "lower"},
	{name: "stage.UDP.self_ns", unit: "ns", better: "lower"},
	{name: "stage.MFLOW.self_ns", unit: "ns", better: "lower"},
	{name: "stage.MPEG.self_ns", unit: "ns", better: "lower"},
	{name: "stage.DISPLAY.self_ns", unit: "ns", better: "lower"},
	{name: "stage.TEST.self_ns", unit: "ns", better: "lower"},
	{name: "trace.root_ns_per_op", unit: "ns", better: "lower"},
	{name: "trace.probe_ns", unit: "ns", better: "lower"},
	{name: "trace.coverage_pct", unit: "%", better: "higher"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "sim.cluster.speedup", unit: "ratio", better: "higher"},
	// Ladder: direct calls into each layer.
	{name: "sim.event_ns_heap16", unit: "ns", better: "lower"},
	{name: "sim.event_ns_heap64k", unit: "ns", better: "lower"},
	{name: "sim.event_allocs", unit: "count", better: "lower"},
	{name: "sim.cluster_event_ns", unit: "ns", better: "lower"},
	{name: "netdev.link_tx_ns", unit: "ns", better: "lower"},
	{name: "netdev.link_tx_allocs", unit: "count", better: "lower"},
	{name: "eth.classify_hit_ns", unit: "ns", better: "lower"},
	{name: "eth.classify_miss_ns", unit: "ns", better: "lower"},
	{name: "eth.classify_walk_ns", unit: "ns", better: "lower"},
	{name: "eth.classify_burst_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "core.flowcache.lookup_ns", unit: "ns", better: "lower"},
	{name: "core.flowcache.insert_evict_ns", unit: "ns", better: "lower"},
	{name: "core.queue.enq_deq_ns", unit: "ns", better: "lower"},
	{name: "core.path.inject_ns", unit: "ns", better: "lower"},
	{name: "core.path.create_us", unit: "us", better: "lower"},
	{name: "core.path.create_allocs", unit: "count", better: "lower"},
	{name: "core.path.destroy_us", unit: "us", better: "lower"},
	{name: "sched.wake_dispatch_ns", unit: "ns", better: "lower"},
	{name: "sched.interrupt_ns", unit: "ns", better: "lower"},
	{name: "msg.new_free_ns", unit: "ns", better: "lower"},
	{name: "fbuf.get_release_ns", unit: "ns", better: "lower"},
	{name: "fbuf.getburst_ns_per_buf", unit: "ns", better: "lower"},
	{name: "host.prepare_clip_ms", unit: "ms", better: "lower"},
	{name: "appliance.boot_us", unit: "us", better: "lower"},
}

// values is a set of measured metrics by name.
type values map[string]float64

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// countMetrics turns the counter deltas of the timed blocks into the
// per-layer count metrics. Volumes are reported per op, because the number
// of blocks a run fits in its time budget varies; counters that should stay
// at zero are reported raw.
func countMetrics(v values, d *counts, ops int64, seconds float64) {
	perOp := func(i int) float64 { return ratio(d[i], ops) }
	v["sim.events_per_op"] = perOp(cEvents)
	if seconds > 0 {
		v["sim.events_per_s"] = float64(d[cEvents]) / seconds
	}
	v["netdev.rx_frames_per_op"] = perOp(cRxFrames)
	v["netdev.rx_dropped"] = float64(d[cRxDropped])
	v["netdev.link_dropped_per_op"] = perOp(cLinkDropped)
	v["netdev.bursts_per_op"] = perOp(cBursts)
	v["netdev.frames_per_burst"] = ratio(d[cBurstFrames], d[cBursts])
	v["eth.rx_no_path"] = float64(d[cEthNoPath])
	v["eth.rx_queue_full"] = float64(d[cEthQueueFull])
	v["eth.burst_shared_per_op"] = perOp(cEthBurstShared)
	v["core.flowcache.hit_ratio"] = ratio(d[cFcHits], d[cFcHits]+d[cFcMisses])
	v["core.flowcache.inserts_per_op"] = perOp(cFcInserts)
	v["core.flowcache.evictions_per_op"] = perOp(cFcEvictions)
	v["core.flowcache.invalidations_per_op"] = perOp(cFcInvalidations)
	v["core.flowcache.dead_lookups"] = float64(d[cFcDeadLookups])
	v["core.queue.dropped"] = float64(d[cQDropped])
	v["core.queue.shed"] = float64(d[cQShed])
	v["sched.dispatches_per_op"] = perOp(cDispatches)
	v["sched.interrupts_per_op"] = perOp(cInterrupts)
	v["sched.irq_share"] = ratio(d[cIrqNs], d[cIrqNs]+d[cBusyNs])
	v["mflow.retransmits_per_op"] = perOp(cRetransmits)
	v["mflow.fast_retransmits_per_op"] = perOp(cFastRetransmits)
	v["mflow.rtos_per_op"] = perOp(cRTOs)
	v["mflow.gaps"] = float64(d[cGaps])
	v["mflow.acks_per_op"] = perOp(cAcksSent)
	v["fbuf.gets_per_op"] = perOp(cFbufGets)
	v["fbuf.exhausted"] = float64(d[cFbufExhausted])
	v["msg.copy_bytes_per_op"] = perOp(cCopyBytes)
	v["display.missed_per_op"] = perOp(cDispMissed)
	v["display.late_skips_per_op"] = perOp(cDispLateSkips)
	v["host.packets_sent_per_op"] = perOp(cPktsSent)
	v["host.acks_received_per_op"] = perOp(cAcksReceived)
}

// dropCounters are the counters that must stay at zero on every workload: a
// drop below capacity is a bug, not load shedding.
var dropCounters = []struct {
	idx  int
	name string
}{
	{cRxDropped, "netdev.rx_dropped"},
	{cEthNoPath, "eth.rx_no_path"},
	{cEthQueueFull, "eth.rx_queue_full"},
	{cQDropped, "core.queue.dropped"},
	{cFbufExhausted, "fbuf.exhausted"},
}
