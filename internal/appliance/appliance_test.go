package appliance

import (
	"strings"
	"testing"
	"time"

	"scout/internal/core"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/proto/mflow"
	"scout/internal/routers"
	"scout/internal/sim"
)

var (
	peerMAC  = netdev.MAC{2, 0, 0, 0, 0, 0x20}
	peerAddr = inet.IP(10, 0, 0, 20)
)

// tinyClip keeps real-codec integration runs fast.
var tinyClip = mpeg.ClipSpec{
	Name: "Tiny", Frames: 24, W: 64, H: 48, FPS: 30, GOP: 6,
	AvgPBits: 6000, Jitter: 0.3,
	Scene: mpeg.SceneConfig{W: 64, H: 48, Detail: 0.4, Motion: 1, Objects: 1, Seed: 42},
}

func bootPair(t *testing.T, lc netdev.LinkConfig, cfg Config) (*sim.Engine, *Kernel, *host.Host) {
	t.Helper()
	eng := sim.New(1)
	if lc.BitsPerSec == 0 {
		lc.BitsPerSec = 10_000_000
		lc.Delay = 200 * time.Microsecond
	}
	link := netdev.NewLink(eng, lc)
	k, err := Boot(eng, link, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := host.New(link, peerMAC, peerAddr)
	return eng, k, h
}

func TestBootBuildsFigure9Graph(t *testing.T) {
	_, k, _ := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	for _, name := range []string{"ETH", "ARP", "IP", "UDP", "ICMP", "MFLOW", "MPEG", "DISPLAY", "SHELL", "TEST"} {
		if _, ok := k.Graph.Router(name); !ok {
			t.Fatalf("router %s missing from graph", name)
		}
	}
	// Boot-time paths: ARP listen, ICMP listen, SHELL listen (IP's
	// reassembly path too). These are the paper's "handful of paths
	// created by a few routers at boot" (§3.3).
	if k.ICMP.Path() == nil {
		t.Fatal("ICMP boot path missing")
	}
}

func TestFigure9VideoPathStructure(t *testing.T) {
	_, k, _ := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	p, lport, err := k.CreateVideoPath(&VideoAttrs{
		Source: inet.Participants{RemoteAddr: peerAddr, RemotePort: 7000},
		FPS:    30, Frames: 10, CostModel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lport == 0 {
		t.Fatal("no local port allocated")
	}
	want := []string{"DISPLAY", "MPEG", "MFLOW", "UDP", "IP", "ETH"}
	if p.Len() != len(want) {
		t.Fatalf("path has %d stages, want %d (%v)", p.Len(), len(want), p)
	}
	for i, s := range p.Stages() {
		if s.Router.Name != want[i] {
			t.Fatalf("stage %d = %s, want %s", i, s.Router.Name, want[i])
		}
	}
	// Interface chaining: walking BWD from the ETH end must visit every
	// stage back to DISPLAY (Figure 7's chained interfaces).
	steps := 0
	for iface := p.End[1].End[core.BWD]; iface != nil; iface = iface.Base().Next {
		steps++
		if steps > 10 {
			t.Fatal("BWD interface chain does not terminate")
		}
	}
	if steps != len(want) {
		t.Fatalf("BWD chain length %d, want %d", steps, len(want))
	}
}

func streamClip(t *testing.T, costOnly bool, frames int) (*Kernel, *core.Path, *host.Source, *sim.Engine) {
	t.Helper()
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	clip := tinyClip
	clip.Frames = frames
	p, lport, err := k.CreateVideoPath(&VideoAttrs{
		Source:    inet.Participants{RemoteAddr: peerAddr, RemotePort: 7000},
		FPS:       clip.FPS,
		Frames:    frames,
		CostModel: costOnly,
		QueueLen:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := host.NewSource(h, host.SourceConfig{
		Clip: clip, SrcPort: 7000, CostOnly: costOnly, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { src.Start(k.Cfg.Addr, lport) })
	return k, p, src, eng
}

func TestEndToEndRealDecode(t *testing.T) {
	k, p, src, eng := streamClip(t, false, 24)
	eng.RunUntil(sim.Time(3 * time.Second))
	if done, _ := src.Done(); !done {
		t.Fatalf("source did not finish (sent %d/%d packets, acks %d)",
			src.PacketsSent, src.NumPackets(), src.AcksReceived)
	}
	sink := k.Display.Sink(p, "DISPLAY")
	if sink == nil {
		t.Fatal("no sink attached")
	}
	if sink.Displayed() != 24 {
		t.Fatalf("displayed %d frames, want 24 (missed %d)", sink.Displayed(), sink.Missed())
	}
	if sink.Missed() != 0 {
		t.Fatalf("missed %d deadlines on an unloaded system", sink.Missed())
	}
	pk, fr, errs, ok := routers.MPEGStats(p, "MPEG")
	if !ok || fr != 24 || errs != 0 {
		t.Fatalf("mpeg stats packets=%d frames=%d errs=%d ok=%v", pk, fr, errs, ok)
	}
	// The framebuffer must contain the last dithered frame, not zeros.
	nonzero := 0
	for _, px := range k.FB.Framebuffer() {
		if px != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("framebuffer untouched after playing a clip")
	}
}

func TestEndToEndCostModel(t *testing.T) {
	k, p, src, eng := streamClip(t, true, 30)
	eng.RunUntil(sim.Time(3 * time.Second))
	if done, _ := src.Done(); !done {
		t.Fatalf("source did not finish (sent %d/%d, acks=%d)", src.PacketsSent, src.NumPackets(), src.AcksReceived)
	}
	sink := k.Display.Sink(p, "DISPLAY")
	if sink.Displayed() != 30 || sink.Missed() != 0 {
		t.Fatalf("displayed=%d missed=%d, want 30/0", sink.Displayed(), sink.Missed())
	}
	if p.CPUTime() == 0 {
		t.Fatal("no CPU charged to the path")
	}
	if p.ExecEWMA() == 0 {
		t.Fatal("no per-execution EWMA — §4.2's measurement hook is dead")
	}
}

func TestMFLOWDeliveryAndRTT(t *testing.T) {
	_, p, src, eng := streamClip(t, true, 30)
	eng.RunUntil(sim.Time(3 * time.Second))
	st, ok := mflow.StatsOf(p, "MFLOW")
	if !ok {
		t.Fatal("no MFLOW stage stats")
	}
	if st.Delivered == 0 || st.AcksSent == 0 {
		t.Fatalf("mflow delivered=%d acks=%d", st.Delivered, st.AcksSent)
	}
	if st.Gaps != 0 || st.OldDrops != 0 {
		t.Fatalf("lossless link produced gaps=%d old=%d", st.Gaps, st.OldDrops)
	}
	if src.RTTEWMA <= 0 {
		t.Fatal("source measured no RTT from echoed timestamps")
	}
	// One-way delay is 200µs; RTT must be at least 400µs.
	if src.RTTEWMA < 400*time.Microsecond {
		t.Fatalf("RTT %v below physical floor", src.RTTEWMA)
	}
}

func TestICMPEchoThroughICMPPath(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	for i := 1; i <= 5; i++ {
		seq := uint16(i)
		eng.At(sim.Time(time.Duration(i)*time.Millisecond), func() {
			h.SendEcho(k.Cfg.Addr, 1, seq, 56)
		})
	}
	eng.RunUntil(sim.Time(time.Second))
	if h.EchoReplies != 5 {
		t.Fatalf("got %d echo replies, want 5", h.EchoReplies)
	}
	reqs, reps := k.ICMP.Stats()
	if reqs != 5 || reps != 5 {
		t.Fatalf("icmp processed %d/%d", reqs, reps)
	}
}

func TestShellCreatesPathOverNetwork(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	var reply string
	eng.At(0, func() {
		h.Command(k.Cfg.Addr, uint16(k.Cfg.ShellPort), 6100, "mpeg 7000 30 24", func(r string) { reply = r })
	})
	eng.RunUntil(sim.Time(500 * time.Millisecond))
	if !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("shell reply = %q", reply)
	}
	if len(k.Shell.Paths()) != 1 {
		t.Fatalf("shell tracks %d paths, want 1", len(k.Shell.Paths()))
	}
	for _, p := range k.Shell.Paths() {
		if p.StageOf("MPEG") == nil {
			t.Fatal("shell-created path has no MPEG stage")
		}
	}
}

func TestShellStopDeletesPath(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	var replies []string
	collect := func(r string) { replies = append(replies, r) }
	eng.At(0, func() {
		h.Command(k.Cfg.Addr, uint16(k.Cfg.ShellPort), 6100, "mpeg 7000 30 24", collect)
	})
	eng.RunUntil(sim.Time(200 * time.Millisecond))
	if len(replies) != 1 || !strings.HasPrefix(replies[0], "OK ") {
		t.Fatalf("create replies = %q", replies)
	}
	pid := strings.Fields(replies[0])[1]
	eng.At(eng.Now(), func() {
		h.Command(k.Cfg.Addr, uint16(k.Cfg.ShellPort), 6100, "stop "+pid, collect)
	})
	eng.RunUntil(eng.Now().Add(200 * time.Millisecond))
	if len(replies) != 2 || replies[1] != "OK" {
		t.Fatalf("stop replies = %q", replies)
	}
	if len(k.Shell.Paths()) != 0 {
		t.Fatal("path not removed after stop")
	}
}

func TestShellRejectsBadCommands(t *testing.T) {
	_, k, _ := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	from := inet.Participants{RemoteAddr: peerAddr, RemotePort: 6100}
	for _, cmd := range []string{"", "bogus", "mpeg", "mpeg x y", "stop abc", "stop 999"} {
		if r := k.Shell.Execute(cmd, from); !strings.HasPrefix(r, "ERR") {
			t.Fatalf("command %q accepted: %q", cmd, r)
		}
	}
}

func TestEarlyDiscardOnFullQueue(t *testing.T) {
	// A path whose queues are tiny must drop excess packets at the
	// classifier, before any path execution (§1's "discard unnecessary
	// work early").
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	clip := tinyClip
	clip.Frames = 40
	_, lport, err := k.CreateVideoPath(&VideoAttrs{
		Source: inet.Participants{RemoteAddr: peerAddr, RemotePort: 7000},
		FPS:    clip.FPS, Frames: clip.Frames, CostModel: true, QueueLen: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bypass MFLOW's window: blast valid (expensive to decode) ALF data
	// packets straight at the port, faster than the cost model can chew.
	eng.At(0, func() {
		for i := 1; i <= 64; i++ {
			alf := mpeg.TracePackets(uint32(i-1), mpeg.FrameInfo{Kind: mpeg.FrameI, Bits: 9600}, 4, 3, 0)[0].Marshal()
			payload := make([]byte, mflow.HeaderLen+len(alf))
			mflow.Header{Kind: mflow.KindData, Seq: uint32(i), TS: int64(eng.Now())}.Put(payload[:mflow.HeaderLen])
			copy(payload[mflow.HeaderLen:], alf)
			h.SendUDP(k.Cfg.Addr, lport, 7000, payload)
		}
	})
	eng.RunUntil(sim.Time(time.Second))
	st := k.ETH.Stats()
	if st.RxQueueFull == 0 {
		t.Fatalf("no early discards on a 2-slot queue: %+v", st)
	}
}

func TestClassifierDropsUnknownTraffic(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	eng.At(0, func() {
		h.SendUDP(k.Cfg.Addr, 9999, 1234, []byte("nobody home")) // unbound port
	})
	eng.RunUntil(sim.Time(100 * time.Millisecond))
	if st := k.ETH.Stats(); st.RxNoPath == 0 {
		t.Fatalf("unclassifiable packet not discarded: %+v", st)
	}
}

func TestIPFragmentationReassemblyPath(t *testing.T) {
	// Send a UDP datagram larger than the MTU from Scout to the peer:
	// the IP stage fragments. Then make the peer send an oversized
	// datagram to Scout... hosts don't fragment, so instead verify the
	// Scout->peer direction plus the reassembly path existence.
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	// Scout->peer: use the TEST router to open a UDP path and send big.
	testR, _ := k.Graph.Router("TEST")
	var p *core.Path
	eng.At(0, func() {
		var err error
		p, err = k.Graph.CreatePath(testR, attrsFor(peerAddr, 7100, 7101))
		if err != nil {
			t.Errorf("create: %v", err)
		}
	})
	got := make(chan int, 1)
	received := -1
	h.OnUDP(7100, func(src inet.Participants, payload []byte) {
		received = len(payload)
		select {
		case got <- len(payload):
		default:
		}
	})
	eng.At(sim.Time(10*time.Millisecond), func() {
		m := newPayloadMsg(4000)
		if err := p.Inject(core.FWD, m); err != nil {
			t.Errorf("inject: %v", err)
		}
		p.TakeExecCost()
	})
	eng.RunUntil(sim.Time(time.Second))
	// The peer host does not reassemble; it sees fragments and drops
	// them. What we verify here: IP fragmented the datagram on the wire.
	if st := k.IP.Stats(); st.FragmentsSent < 3 {
		t.Fatalf("expected ≥3 fragments for 4000B over 1500 MTU, got %d", st.FragmentsSent)
	}
	_ = received
}

func TestReassemblyPathRebuildsDatagram(t *testing.T) {
	// Drive Scout's reassembly path directly: hand-build IP fragments of
	// a UDP datagram destined to the TEST path's port and inject them as
	// wire frames.
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	testR, _ := k.Graph.Router("TEST")
	ti := k.Test
	var p *core.Path
	eng.At(0, func() {
		var err error
		p, err = k.Graph.CreatePath(testR, attrsFor(peerAddr, 7200, 7201))
		if err != nil {
			t.Errorf("create: %v", err)
		}
	})
	eng.At(sim.Time(5*time.Millisecond), func() {
		sendFragmentedUDP(h, k.Cfg.Addr, 7201, 7200, 3000)
	})
	eng.RunUntil(sim.Time(time.Second))
	if st := k.IP.Stats(); st.Reassembled != 1 {
		t.Fatalf("reassembled %d datagrams, want 1", st.Reassembled)
	}
	if ti.Received != 1 || ti.Bytes != 3000 {
		t.Fatalf("TEST received %d msgs / %d bytes, want 1/3000", ti.Received, ti.Bytes)
	}
	_ = p
}

// TestReassemblyLeavesNoTimer: a completed datagram cancels its entry's
// expiry (and the peer's answered ARP query its retry), so the engine holds
// exactly what it held before the fragments came.
func TestReassemblyLeavesNoTimer(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	testR, _ := k.Graph.Router("TEST")
	if _, err := k.Graph.CreatePath(testR, attrsFor(peerAddr, 7200, 7201)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(5 * time.Millisecond))
	before := eng.Pending()
	eng.At(eng.Now(), func() { sendFragmentedUDP(h, k.Cfg.Addr, 7201, 7200, 3000) })
	eng.RunUntil(sim.Time(time.Second + 5*time.Millisecond)) // between vsyncs, as before
	if st := k.IP.Stats(); st.Reassembled != 1 || st.ReasmTimeouts != 0 {
		t.Fatalf("reassembled %d, timed out %d; want 1 and 0", st.Reassembled, st.ReasmTimeouts)
	}
	if got := eng.Pending(); got != before {
		t.Fatalf("%d events pending after the datagram completed, %d before it", got, before)
	}
}

// TestARPRetryTimer: the resolver's retry timer is an owner-held event. An
// answered request leaves nothing queued; an unanswered one goes out Retries
// times, each gap double the one before, and fails its callback one more
// doubled gap after the last.
func TestARPRetryTimer(t *testing.T) {
	eng, k, _ := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	// Pending is compared between vsyncs, when the display thread is idle.
	eng.RunUntil(sim.Time(5 * time.Millisecond))
	before := eng.Pending()
	var mac netdev.MAC
	eng.At(eng.Now(), func() { k.ARP.Resolve(peerAddr, func(m netdev.MAC, ok bool) { mac = m }) })
	eng.RunUntil(sim.Time(105 * time.Millisecond))
	if mac != peerMAC {
		t.Fatalf("resolved %v, want %v", mac, peerMAC)
	}
	if got := eng.Pending(); got != before {
		t.Fatalf("%d events pending after the answer, %d before the request", got, before)
	}

	var requests []sim.Time
	sniffer := netdev.NewDevice(k.Link, netdev.MAC{2, 0, 0, 0, 0, 0x99}, nil)
	sniffer.OnReceive = func(m *msg.Msg) {
		if fh, err := eth.Parse(m.Bytes()); err == nil && fh.Type == inet.EtherTypeARP {
			requests = append(requests, eng.Now())
		}
		m.Free()
	}
	start, failed := eng.Now(), sim.Never
	eng.At(start, func() {
		k.ARP.Resolve(inet.IP(10, 0, 0, 99), func(_ netdev.MAC, ok bool) {
			if !ok {
				failed = eng.Now()
			}
		})
	})
	eng.RunUntil(start.Add(10 * time.Second))
	if len(requests) != k.ARP.Retries {
		t.Fatalf("%d requests on the wire, want %d", len(requests), k.ARP.Retries)
	}
	gap, total := k.ARP.RequestTimeout, time.Duration(0)
	for i := 1; i < len(requests); i++ {
		if got := requests[i].Sub(requests[i-1]); got != gap {
			t.Errorf("retry %d came %v after the one before, want %v", i, got, gap)
		}
		total += gap
		gap *= 2
	}
	if want := start.Add(total + gap); failed != want {
		t.Errorf("callback failed at %v, want %v", failed, want)
	}
	if got := eng.Pending(); got != before {
		t.Errorf("%d events pending after the request failed, %d before it", got, before)
	}
}

func TestUDPChecksumRejectsCorruption(t *testing.T) {
	eng, k, h := bootPair(t, netdev.LinkConfig{}, DefaultConfig())
	testR, _ := k.Graph.Router("TEST")
	eng.At(0, func() {
		if _, err := k.Graph.CreatePath(testR, attrsFor(peerAddr, 7300, 7301)); err != nil {
			t.Errorf("create: %v", err)
		}
	})
	eng.At(sim.Time(5*time.Millisecond), func() {
		// Valid then corrupted datagram.
		h.SendUDP(k.Cfg.Addr, 7301, 7300, []byte("good data"))
	})
	eng.RunUntil(sim.Time(time.Second))
	if k.Test.Received != 1 {
		t.Fatalf("valid datagram not delivered (%d)", k.Test.Received)
	}
	before := k.UDP.Stats().BadChecksum
	// Corrupt: build a datagram with a deliberately wrong checksum.
	eng.At(eng.Now(), func() {
		h.UDPChecksum = false                                      // host writes zero checksum...
		h.SendUDP(k.Cfg.Addr, 7301, 7300, []byte("zero cksum ok")) // zero checksum = unchecked, still delivered
	})
	eng.RunUntil(eng.Now().Add(200 * time.Millisecond))
	if k.Test.Received != 2 {
		t.Fatalf("zero-checksum datagram must pass (got %d)", k.Test.Received)
	}
	if k.UDP.Stats().BadChecksum != before {
		t.Fatal("zero checksum counted as bad")
	}
}
