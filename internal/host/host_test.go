package host

import (
	"encoding/hex"
	"strings"
	"testing"
	"time"

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

func twoHosts(t *testing.T) (*sim.Engine, *Host, *Host) {
	t.Helper()
	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 10_000_000, Delay: 50 * time.Microsecond})
	a := New(link, netdev.MAC{2, 0, 0, 0, 0, 1}, inet.IP(10, 0, 0, 1))
	b := New(link, netdev.MAC{2, 0, 0, 0, 0, 2}, inet.IP(10, 0, 0, 2))
	return eng, a, b
}

func TestHostUDPRoundTrip(t *testing.T) {
	eng, a, b := twoHosts(t)
	var got []byte
	var from inet.Participants
	b.OnUDP(9000, func(src inet.Participants, payload []byte) {
		got, from = append([]byte(nil), payload...), src // payload is the frame's
	})
	eng.At(0, func() { a.SendUDP(b.Addr, 9000, 9001, []byte("ping")) })
	eng.RunFor(time.Second)
	if string(got) != "ping" {
		t.Fatalf("received %q", got)
	}
	if from.RemoteAddr != a.Addr || from.RemotePort != 9001 {
		t.Fatalf("source %v", from)
	}
}

func TestHostARPResolution(t *testing.T) {
	eng, a, b := twoHosts(t)
	var mac netdev.MAC
	eng.At(0, func() { a.Resolve(b.Addr, func(m netdev.MAC) { mac = m }) })
	eng.RunFor(time.Second)
	if mac != b.Dev.Addr {
		t.Fatalf("resolved %v, want %v", mac, b.Dev.Addr)
	}
}

func TestHostEchoExchange(t *testing.T) {
	eng, a, b := twoHosts(t)
	_ = b // b auto-replies to echo requests
	eng.At(0, func() { a.SendEcho(b.Addr, 1, 1, 56) })
	eng.RunFor(time.Second)
	if a.EchoReplies != 1 {
		t.Fatalf("replies = %d", a.EchoReplies)
	}
}

func TestAdaptiveFloodThrottlesWithoutReplies(t *testing.T) {
	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 10_000_000})
	a := New(link, netdev.MAC{2, 0, 0, 0, 0, 1}, inet.IP(10, 0, 0, 1))
	// Target that never answers (dead host on the wire).
	netdev.NewDevice(link, netdev.MAC{2, 0, 0, 0, 0, 9}, nil)
	f := a.FloodEchoAdaptive(inet.IP(10, 0, 0, 9), 1, 8, 0)
	eng.RunFor(2 * time.Second)
	// Without replies the loop falls back to the 100 pps floor. (ARP for
	// a dead host never resolves either, so echoes queue — the send rate
	// is what matters.)
	rate := f.Rate()
	if rate > 150 {
		t.Fatalf("flood at %.0f pps without replies; ping -f floors at 100", rate)
	}
}

func TestAdaptiveFloodEscalatesWithReplies(t *testing.T) {
	eng, a, b := twoHosts(t)
	_ = b
	f := a.FloodEchoAdaptive(b.Addr, 1, 8, 0)
	eng.RunFor(2 * time.Second)
	if f.Rate() < 1000 {
		t.Fatalf("closed loop against an instant responder only reached %.0f pps", f.Rate())
	}
	f.Stop()
}

func TestSourceTracePacketization(t *testing.T) {
	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{})
	h := New(link, netdev.MAC{2, 0, 0, 0, 0, 1}, inet.IP(10, 0, 0, 1))
	clip := mpeg.ClipSpec{Name: "T", Frames: 10, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 20000, Jitter: 0}
	s, err := NewSource(h, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFrames() != 10 {
		t.Fatalf("frames = %d", s.NumFrames())
	}
	// 20kbit ≈ 2500B → 2 packets per P frame, more for I frames.
	if s.NumPackets() < 20 {
		t.Fatalf("packets = %d, want ≥ 2 per frame", s.NumPackets())
	}
}

func TestSourceRequiresPort(t *testing.T) {
	eng := sim.New(1)
	link := netdev.NewLink(eng, netdev.LinkConfig{})
	h := New(link, netdev.MAC{2, 0, 0, 0, 0, 1}, inet.IP(10, 0, 0, 1))
	if _, err := NewSource(h, SourceConfig{Clip: mpeg.Canyon}); err == nil {
		t.Fatal("source without SrcPort accepted")
	}
	_ = eng
}

func TestSourceRespectsInitialWindow(t *testing.T) {
	eng, a, b := twoHosts(t)
	_ = b // no MFLOW receiver: no acks ever
	clip := mpeg.ClipSpec{Name: "T", Frames: 100, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, InitialWindow: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	eng.RunFor(2 * time.Second)
	if s.PacketsSent != 5 {
		t.Fatalf("sent %d packets with window 5 and no acks", s.PacketsSent)
	}
}

func TestSourceLiveIgnoresWindow(t *testing.T) {
	// A live capture source is paced by the frame clock, not the window:
	// with no receiver (no acks ever) it must still send the whole stream.
	eng, a, b := twoHosts(t)
	_ = b
	clip := mpeg.ClipSpec{Name: "T", Frames: 30, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, InitialWindow: 5, Live: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	eng.RunFor(3 * time.Second)
	if done, _ := s.Done(); !done {
		t.Fatalf("live source stalled: sent %d/%d", s.PacketsSent, s.NumPackets())
	}
	if s.PacketsSent != int64(s.NumPackets()) {
		t.Fatalf("sent %d, want all %d despite closed window", s.PacketsSent, s.NumPackets())
	}
}

func TestSourceBackpressureProbesWhenBlocked(t *testing.T) {
	// A blocked backpressure sender must probe (TCP persist): re-send the
	// last packet as a duplicate so a silent receiver can re-advertise.
	eng, a, b := twoHosts(t)
	_ = b // no MFLOW receiver: the window never opens
	clip := mpeg.ClipSpec{Name: "T", Frames: 30, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true,
		InitialWindow: 5, Backpressure: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	eng.RunFor(time.Second)
	if s.Probes < 10 {
		t.Fatalf("probes = %d over 1s of blockage, want ~1 per RTOMin (50ms)", s.Probes)
	}
	// Probes are duplicates of the last packet, not new data.
	if new := s.PacketsSent - s.Probes; new != 5 {
		t.Fatalf("new packets = %d, want the 5-packet window", new)
	}
	if done, _ := s.Done(); done {
		t.Fatal("blocked source claims done")
	}
}

func TestSourceBackpressureAckClamp(t *testing.T) {
	eng, a, b := twoHosts(t)
	_ = b
	clip := mpeg.ClipSpec{Name: "T", Frames: 30, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true,
		InitialWindow: 5, Backpressure: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	eng.RunFor(100 * time.Millisecond) // 5 packets out, blocked
	ack := func(win uint32) {
		var pl [mflow.HeaderLen]byte
		mflow.Header{Kind: mflow.KindAck, Seq: s.seq, Win: win}.Put(pl[:])
		s.onAck(inet.Participants{}, pl[:])
	}
	// A shrinking advertisement takes effect (latest wins) but never drops
	// below what was already sent — in-flight packets cannot be recalled.
	ack(2)
	if s.win != 5 {
		t.Fatalf("win = %d after shrink below sent, want clamp to seq (5)", s.win)
	}
	ack(8)
	if s.win != 8 {
		t.Fatalf("win = %d after re-open, want 8", s.win)
	}
	eng.RunFor(10 * time.Millisecond)
	if s.seq != 8 {
		t.Fatalf("seq = %d after window re-opened to 8, want 8 sent", s.seq)
	}
}

// silentSource starts a Retransmit source against a peer that never acks.
func silentSource(t *testing.T, window uint32) (*sim.Engine, *Source) {
	t.Helper()
	eng, a, b := twoHosts(t)
	clip := mpeg.ClipSpec{Name: "T", Frames: 100, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 8000, Jitter: 0}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true,
		InitialWindow: window, Retransmit: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(0, func() { s.Start(b.Addr, 8000) })
	return eng, s
}

func TestSourceLossCallbackRedispatchKeepsOneTimer(t *testing.T) {
	// E14's failover shape: the loss callback redispatches the unacked
	// buffer. The redispatch re-sent the head and armed the timer; the
	// timeout that ran the callback must not do either again, or two RTO
	// chains run (and double-count losses) for the rest of the stream.
	eng, s := silentSource(t, 5)
	failedOver := false
	s.OnSubLoss = func(int) {
		if !failedOver {
			failedOver = true
			s.RedispatchUnacked()
		}
	}
	eng.RunFor(60 * time.Millisecond) // first RTO at RTOMin = 50ms
	if s.RTOs != 1 || s.Retransmits != 5 || s.PacketsSent != 10 {
		t.Fatalf("RTOs=%d retransmits=%d sent=%d, want 1 timeout re-sending the 5-packet window once",
			s.RTOs, s.Retransmits, s.PacketsSent)
	}
	if n := eng.Pending(); n != 1 {
		t.Fatalf("%d events pending after the redispatch, want the one RTO timer", n)
	}
	eng.RunFor(50 * time.Millisecond) // the redispatch restarted the backoff
	if s.RTOs != 2 {
		t.Fatalf("RTOs=%d at 110ms, want 2 (one chain, RTOMin after the redispatch)", s.RTOs)
	}
}

func TestSourceBackoffSaturatesAgainstSilentPeer(t *testing.T) {
	// 16 packets × 7 doublings each: the backoff shift passes 38, where
	// RTOMin<<shift used to go negative (then 0) and the rest of the window
	// was retried and abandoned within one virtual instant.
	eng, s := silentSource(t, 16)
	var last sim.Time
	s.OnSubLoss = func(int) {
		now := eng.Now()
		if gap := now.Sub(last); gap < 50*time.Millisecond || gap > 500*time.Millisecond {
			t.Errorf("timeout %d at %v, %v after the previous: outside [RTOMin, RTOMax]", s.RTOs, now, gap)
		}
		last = now
	}
	eng.RunFor(2 * time.Minute)
	if s.Abandoned != 16 || s.RTOs != 16*8 {
		t.Fatalf("abandoned=%d RTOs=%d, want all 16 packets given up after 8 timeouts each", s.Abandoned, s.RTOs)
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("%d events pending after the last abandon", n)
	}
}

// TestHandleIPDropsBadLengths feeds handleIP datagrams whose length fields
// lie. Hosts do not verify the UDP checksum, so a wire fault that flips a bit
// in an ack's length field reaches these lines; every such datagram must be
// dropped like any other malformed one, not slice out of range.
func TestHandleIPDropsBadLengths(t *testing.T) {
	_, a, b := twoHosts(t)
	delivered := 0
	b.OnUDP(9000, func(inet.Participants, []byte) { delivered++ })
	// datagram builds a valid 4-byte-payload UDP/IP packet to b, then
	// overwrites the IP total length and UDP length (-1 keeps the true one).
	datagram := func(totalLen, udpLen int) []byte {
		pkt := make([]byte, ip.HeaderLen+udp.HeaderLen+4)
		if totalLen < 0 {
			totalLen = len(pkt)
		}
		if udpLen < 0 {
			udpLen = udp.HeaderLen + 4
		}
		ip.Header{TotalLen: uint16(totalLen), ID: 1, TTL: 64, Proto: inet.ProtoUDP, Src: a.Addr, Dst: b.Addr}.Put(pkt)
		udp.Header{SrcPort: 9001, DstPort: 9000, Length: uint16(udpLen)}.Put(pkt[ip.HeaderLen:])
		return pkt
	}
	for _, tc := range []struct {
		name             string
		totalLen, udpLen int
		want             int
	}{
		{"well-formed", -1, -1, 1},
		{"TotalLen 0", 0, -1, 0},
		{"TotalLen 5", 5, -1, 0},
		{"TotalLen 19", 19, -1, 0},
		{"TotalLen past the frame", 1500, -1, 0},
		{"UDP Length 0", -1, 0, 0},
		{"UDP Length 3", -1, 3, 0},
		{"UDP Length 7", -1, 7, 0},
		{"UDP Length past the body", -1, udp.HeaderLen + 5, 0},
	} {
		delivered = 0
		b.handleIP(datagram(tc.totalLen, tc.udpLen))
		if delivered != tc.want {
			t.Errorf("%s: delivered %d datagrams, want %d", tc.name, delivered, tc.want)
		}
	}
}

// TestSourceWireBytesGolden pins the frame a Source puts on the wire for a
// fixed (seq, timestamp, ALF packet), byte for byte: Ethernet, IP (ID 3: the
// third packet to leave once ARP resolved), UDP with its checksum, MFLOW and
// ALF headers, zero payload. The hex was captured before the sender built
// its packets in place.
func TestSourceWireBytesGolden(t *testing.T) {
	const golden = "020000000002" + "020000000001" + "0800" + // eth
		"4500007e000300004011666a0a0000010a000002" + // ip, ID 3
		"1b581f40006aff5b" + // udp 7000 -> 8000, checksum ff5b
		"01" + "00000003" + "00000000" + "000000000012d687" + // mflow data, seq 3, TS 1234567
		"00000000" + "49" + "01" + "0403" + "0002" + "0001" + "000c" + "00" // alf: frame 0, I, 1 of 12 macroblocks from 2
	eng, a, b := twoHosts(t)
	var frames [][]byte
	recv := b.Dev.OnReceive
	b.Dev.OnReceive = func(m *msg.Msg) {
		if fh, err := eth.Parse(m.Bytes()); err == nil && fh.Type == inet.EtherTypeIP {
			frames = append(frames, append([]byte(nil), m.Bytes()...))
		}
		recv(m)
	}
	clip := mpeg.ClipSpec{Name: "T", Frames: 4, W: 64, H: 48, FPS: 30, GOP: 5, AvgPBits: 2400, Jitter: 0.3}
	s, err := NewSource(a, SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, PayloadBudget: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.At(sim.Time(1234567), func() { s.Start(b.Addr, 8000) })
	eng.RunFor(time.Second)
	if len(frames) < 3 {
		t.Fatalf("captured %d IP frames, want at least 3", len(frames))
	}
	want := golden + strings.Repeat("00", 66) // the synthetic ALF payload
	if got := hex.EncodeToString(frames[2]); got != want {
		t.Fatalf("third frame on the wire:\n got %s\nwant %s", got, want)
	}
}
