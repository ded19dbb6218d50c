package exp

import (
	"bytes"
	"testing"
	"time"

	"scout/internal/appliance"
	"scout/internal/host"
	"scout/internal/mpath"
	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
	"scout/internal/routers"
	"scout/internal/sim"
)

// bootMultipath builds a world with one wire per delay, boots the appliance
// with NIC i on wire i, and attaches one source-side host per wire (same
// IP/MAC on every wire; subflow UDP ports tell the traffic apart).
func bootMultipath(seed int64, delays []time.Duration, boot bootFunc) (*sim.Engine, []*netdev.Link, *appliance.Kernel, []*host.Host) {
	eng := sim.New(seed)
	links := make([]*netdev.Link, len(delays))
	for i, d := range delays {
		links[i] = netdev.NewLink(eng, netdev.LinkConfig{ID: i, BitsPerSec: linkBps, Delay: d})
	}
	cfg := appliance.DefaultConfig()
	cfg.MAC, cfg.Addr = scoutMAC, scoutAddr
	cfg.RefreshHz = 2000
	cfg.ExtraLinks = links[1:]
	k, err := boot(eng, links[0], cfg)
	if err != nil {
		panic(err)
	}
	hosts := make([]*host.Host, len(links))
	for i := range links {
		hosts[i] = host.New(links[i], srcMAC, srcAddr)
	}
	return eng, links, k, hosts
}

// startMultipathFlow creates a k-subpath reliable video flow plus its
// multipath source and wires the dispatch/quality hooks together.
func startMultipathFlow(eng *sim.Engine, k *appliance.Kernel, hosts []*host.Host,
	clip mpeg.ClipSpec, basePort uint16, subs int, policy string, startSub int) (*mpath.PathSet, *host.Source) {
	ps, lport, err := k.CreateVideoPathSet(&appliance.VideoAttrs{
		Source:    inet.Participants{RemoteAddr: srcAddr, RemotePort: basePort},
		FPS:       2000,
		CostModel: true,
		QueueLen:  32,
		Sched:     "rr",
		Priority:  2,
		Reliable:  true,
	}, subs, policy, startSub)
	if err != nil {
		panic(err)
	}
	src, err := host.NewSource(hosts[0], host.SourceConfig{
		Clip: clip, SrcPort: basePort, CostOnly: true, MaxRate: true, Seed: 11,
		Retransmit: true,
	})
	if err != nil {
		panic(err)
	}
	for i := 1; i < subs; i++ {
		src.AddSubflow(hosts[i], basePort+uint16(i))
	}
	src.Dispatch = ps.Dispatch
	src.OnSubAck = ps.NoteAck
	src.OnSubLoss = ps.NoteLoss
	eng.At(0, func() { src.Start(k.Cfg.Addr, lport) })
	return ps, src
}

// Satellite: cross-path resequencing. Frames striped over two links with a
// 5ms latency gap arrive heavily reordered; the shared MFLOW flow state must
// resequence them into a complete stream, and the sender's spurious fast
// retransmits (dup-acks from reordering, not loss) must stay bounded.
func TestMultipathResequencingAcrossLatencies(t *testing.T) {
	eng, _, k, hosts := bootMultipath(1, []time.Duration{20 * time.Microsecond, 5 * time.Millisecond}, appliance.Boot)
	clip := mpeg.Flower
	ps, src := startMultipathFlow(eng, k, hosts, clip, 7000, 2, "round-robin-stripe", 0)
	p := ps.Sub(0).Path
	sink := k.Display.Sink(p, "DISPLAY")
	total := int64(src.NumFrames())
	runUntil(eng, 2*time.Minute, func() bool { return sink.Displayed() >= total })

	complete, _ := routers.MPEGComplete(p, "MPEG")
	if complete != total {
		t.Fatalf("resequencing incomplete: %d/%d frames complete", complete, total)
	}
	snap := ps.Snapshot()
	half := int64(src.PacketsSent) / 4
	if snap[0].Sent < half || snap[1].Sent < half {
		t.Fatalf("stripe did not spread: sub0=%d sub1=%d of %d", snap[0].Sent, snap[1].Sent, src.PacketsSent)
	}
	// No packets were lost, so every fast retransmit is spurious (reordering
	// masquerading as a hole). The dup-ack threshold plus the one-per-hole
	// rule must keep them a small fraction of the stream.
	if limit := src.PacketsSent / 10; src.FastRetransmits > limit {
		t.Fatalf("%d spurious fast retransmits of %d packets sent (limit %d)",
			src.FastRetransmits, src.PacketsSent, limit)
	}
}

// Satellite: observability. Every subpath must show up in the trace and
// metrics exports under its own `<base>/sub<i>@<policy>` label, and the
// device sampler must cover every attached NIC, so pathtop can attribute
// work per subpath per policy.
func TestMultipathTraceLabelsAndDeviceRows(t *testing.T) {
	clip := mpeg.Flower
	clip.Frames = 30
	st := maxRateStream(clip, true)
	st.policy = "round-robin-stripe"
	st.attrs.Trace, st.attrs.TraceLabel = true, "flower"
	w := newWorld(worldSpec{
		seed: 1, maxRate: true, wires: 2,
		tune:    func(c *appliance.Config) { c.Tracing = true },
		streams: []streamSpec{st},
	})
	k := w.k
	w.play(2 * time.Minute)

	doc := k.Tracer.MetricsDoc()
	want := map[string]bool{
		"flower/sub0@round-robin-stripe": false,
		"flower/sub1@round-robin-stripe": false,
	}
	for _, pm := range doc.Paths {
		if _, ok := want[pm.Label]; ok {
			want[pm.Label] = true
		}
	}
	for label, seen := range want {
		if !seen {
			t.Errorf("metrics export missing subpath label %q", label)
		}
	}
	devs := map[string]bool{}
	for _, dv := range doc.Devices {
		devs[dv.Device] = true
	}
	if !devs["eth0"] || !devs["eth1"] {
		t.Errorf("device sampler missing a NIC: got %v, want eth0 and eth1", devs)
	}
	var trace bytes.Buffer
	if err := k.Tracer.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	for label := range want {
		if !bytes.Contains(trace.Bytes(), []byte(label)) {
			t.Errorf("trace_event export missing subpath label %q", label)
		}
	}
}

// runRepinVariant streams one loss-aware flow over two links, degrades the
// flow's starting link mid-run, and reports the outputs a fast-path
// differential must agree on.
func runRepinVariant(t *testing.T, boot bootFunc) (cell struct {
	Displayed, Complete int64
	EndNs, CPUNs        int64
	Repins              int64
	RetiredGen          uint64
}) {
	t.Helper()
	st := maxRateStream(mpeg.Flower, true)
	st.policy = "loss-aware-ewma"
	w := newWorld(worldSpec{seed: 1, maxRate: true, wires: 2, boot: boot, streams: []streamSpec{st}})
	k, ps, p, sink := w.k, w.streams[0].set, w.streams[0].p, w.streams[0].sink
	// Mid-run, the incumbent link degrades hard; the loss-aware policy must
	// re-pin the flow onto the clean link.
	w.eng.At(sim.Time(500*time.Millisecond), func() {
		w.links[0].InjectFaults(netdev.FaultPlan{Loss: 0.05, BurstLoss: 0.05, BurstLen: 8})
	})
	end := w.play(5 * time.Minute)
	cell.Displayed = sink.Displayed()
	cell.Complete, _ = routers.MPEGComplete(p, "MPEG")
	cell.EndNs = int64(end)
	cell.CPUNs = int64(p.CPUTime())
	cell.Repins = ps.Repins()
	if k.Devs[0].Flows != nil {
		cell.RetiredGen = k.Devs[0].Flows.Gen()
	}
	return cell
}

// Satellite: after a policy re-pin the flow cache must never deliver to the
// retired subpath. The unit half of the guarantee (Gen() advances on re-pin)
// is asserted here at system level; the differential half is E12's logic with
// multipath enabled — a same-seed run on the reference kernel must agree
// on every output, which it could not if a stale cache binding kept routing
// frames to the abandoned subpath.
func TestMultipathRepinFastPathDifferential(t *testing.T) {
	fast := runRepinVariant(t, appliance.Boot)
	slow := runRepinVariant(t, appliance.BootReference)
	if fast.Repins < 1 {
		t.Fatalf("degrading the incumbent link caused no re-pin")
	}
	if fast.RetiredGen == 0 {
		t.Fatalf("retired NIC's flow-cache generation never advanced")
	}
	if fast.Displayed != slow.Displayed || fast.Complete != slow.Complete ||
		fast.EndNs != slow.EndNs || fast.CPUNs != slow.CPUNs {
		t.Fatalf("outputs diverge from the reference kernel with multipath: fast=%+v reference=%+v", fast, slow)
	}
	if fast.Complete < int64(mpeg.Flower.Frames)*95/100 {
		t.Fatalf("re-pinned flow lost too many frames: %d/%d complete", fast.Complete, mpeg.Flower.Frames)
	}
}
