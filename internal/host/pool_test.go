package host

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"scout/internal/appliance"
	"scout/internal/fbuf"
	"scout/internal/mpeg"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
	"scout/internal/routers"
	"scout/internal/sim"
)

// poolClip is small enough to encode for real and long enough to wrap the
// frame pool several times.
var poolClip = mpeg.ClipSpec{
	Name: "Pool", Frames: 90, W: 64, H: 48, FPS: 30, GOP: 6, AvgPBits: 24000, Jitter: 0.3,
	Scene: mpeg.SceneConfig{W: 64, H: 48, Detail: 0.4, Motion: 1, Objects: 1, Seed: 42},
}

// TestStoredSumsMatchFullChecksum sends a prepared clip and a really encoded
// one and recomputes, over all of its bytes, the UDP checksum of every
// datagram that reaches the wire: the stored tail sums the sender folded in
// must have produced exactly that. Each datagram must also carry its packet's
// head and then its zeros, whether its frame came fresh or dirty from the
// pool (buffers come back poisoned) or from the collector once the pool ran
// out at maximum rate.
func TestStoredSumsMatchFullChecksum(t *testing.T) {
	var reused, fallback int64
	for _, tc := range []struct {
		name  string
		paced bool
		cfg   SourceConfig
	}{
		{"prepared", false, SourceConfig{Prepared: PrepareClip(poolClip, 0, 3)}},
		{"prepared, paced", true, SourceConfig{Prepared: PrepareClip(poolClip, 0, 3), FPS: 30}},
		{"odd payloads", false, SourceConfig{Clip: poolClip, CostOnly: true, PayloadBudget: 41, Seed: 3}},
		{"real encoder", false, SourceConfig{Clip: poolClip, RealFrames: 4}},
	} {
		eng, a, b := twoHosts(t)
		pool := usePoisonPool(a)
		cfg := tc.cfg
		cfg.SrcPort, cfg.MaxRate, cfg.InitialWindow = 7000, !tc.paced, 1<<20
		s, err := NewSource(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		recv := b.Dev.OnReceive
		b.Dev.OnReceive = func(m *msg.Msg) {
			if fh, err := eth.Parse(m.Bytes()); err == nil && fh.Type == inet.EtherTypeIP {
				dg := append([]byte(nil), m.Bytes()[eth.HeaderLen+ip.HeaderLen:]...)
				sent := binary.BigEndian.Uint16(dg[6:8])
				dg[6], dg[7] = 0, 0
				want := inet.ChecksumPseudo(a.Addr, b.Addr, inet.ProtoUDP, dg)
				if want == 0 {
					want = 0xffff
				}
				if sent != want {
					t.Errorf("%s: datagram %d left with checksum %#04x, its bytes sum to %#04x", tc.name, checked, sent, want)
				}
				mh, err := mflow.Parse(dg[udp.HeaderLen:])
				if err != nil {
					t.Fatalf("%s: datagram %d: %v", tc.name, checked, err)
				}
				p := s.packets[mh.Seq-1]
				alf := dg[udp.HeaderLen+mflow.HeaderLen:]
				if len(alf) != len(p.head)+p.zeros || !bytes.Equal(alf[:len(p.head)], p.head) || !bytes.Equal(alf[len(p.head):], make([]byte, p.zeros)) {
					t.Errorf("%s: packet %d's %d ALF bytes are not its %d-byte head and %d zeros", tc.name, mh.Seq, len(alf), len(p.head), p.zeros)
				}
				checked++
			}
			recv(m)
		}
		s.Start(b.Addr, 8000)
		eng.RunFor(10 * time.Second)
		if checked != s.NumPackets() || checked == 0 {
			t.Fatalf("%s: checked %d datagrams of %d", tc.name, checked, s.NumPackets())
		}
		st := pool.inner.Stats()
		reused += st.Hits
		fallback += st.Exhausted
	}
	if reused == 0 || fallback == 0 {
		t.Fatalf("%d datagrams left in a reused frame and %d in a GC-owned one, want some of each", reused, fallback)
	}
}

// TestPrepareClipHoldsHeadersOnly: a prepared clip is headers plus lengths,
// so preparing the paper's four clips allocates a small fraction of their
// 20 MB of payload.
func TestPrepareClipHoldsHeadersOnly(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for _, c := range mpeg.Clips {
		n += PrepareClip(c, 0, 11).NumPackets()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("preparing %d clips (%d packets) allocated %d bytes, want < 2 MB", len(mpeg.Clips), n, got)
	}
}

// poisonPool stands in for a host's frame pool. It draws from that pool, but
// a buffer comes back through it and is overwritten with 0xDB before the pool
// sees it again: with GC-owned frames a read after Free saw the old bytes and
// went unnoticed, with pooled frames it must not happen, and with poisoned
// ones it cannot pass a checksum or a header parse.
type poisonPool struct {
	mu    sync.Mutex
	inner *fbuf.Pool
	out   map[*byte]*msg.Msg // the inner message that owns each buffer handed out
}

func usePoisonPool(h *Host) *poisonPool {
	p := &poisonPool{inner: h.frames.(*fbuf.Pool), out: make(map[*byte]*msg.Msg)}
	h.frames = p
	return p
}

func (p *poisonPool) Get(n int) (*msg.Msg, error) {
	in, err := p.inner.Get(n)
	if err != nil {
		return nil, err
	}
	in.Push(in.Headroom())
	buf := in.Bytes()
	p.mu.Lock()
	p.out[&buf[0]] = in
	p.mu.Unlock()
	return msg.FromBuffer(buf, p.inner.Headroom(), len(buf), p), nil
}

func (p *poisonPool) Release(buf []byte) {
	for i := range buf {
		buf[i] = 0xDB
	}
	p.mu.Lock()
	in := p.out[&buf[0]]
	delete(p.out, &buf[0])
	p.mu.Unlock()
	in.Free()
}

// sendStaleFragments sends MFLOW data packet seq 1 again as two IP fragments,
// last first, so the kernel's reassembly runs beside the pooled frames.
func sendStaleFragments(h *Host, dst inet.Addr, dstPort, srcPort uint16, alf alfPacket) {
	dg := make([]byte, udp.HeaderLen+mflow.HeaderLen+len(alf.head)+alf.zeros)
	udp.Header{SrcPort: srcPort, DstPort: dstPort, Length: uint16(len(dg))}.Put(dg)
	mflow.Header{Kind: mflow.KindData, Seq: 1}.Put(dg[udp.HeaderLen:])
	copy(dg[udp.HeaderLen+mflow.HeaderLen:], alf.head)
	binary.BigEndian.PutUint16(dg[6:8], inet.ChecksumPseudo(h.Addr, dst, inet.ProtoUDP, dg))
	const cut = 16 // fragment offsets are multiples of 8
	for _, f := range []struct {
		off  int
		data []byte
	}{{cut, dg[cut:]}, {0, dg[:cut]}} {
		pkt := make([]byte, ip.HeaderLen+len(f.data))
		ip.Header{TotalLen: uint16(len(pkt)), ID: 777, MF: f.off == 0, FragOff: f.off, TTL: 64, Proto: inet.ProtoUDP, Src: h.Addr, Dst: dst}.Put(pkt)
		copy(pkt[ip.HeaderLen:], f.data)
		h.SendFrame(h.arpCache[dst], inet.EtherTypeIP, pkt)
	}
}

// TestPooledFramesSurvivePoisonedRelease plays a clip into an appliance
// kernel with every released frame buffer poisoned, once the way
// video_maxrate does and once over a reliable path on a wire that loses,
// duplicates and reorders (so packets are held behind holes, freed twice
// over as clones, and retransmitted), with a fragmented datagram on the side.
// Every frame must come out whole, no datagram may fail its checksum, and
// once the world is quiet every buffer must be back in the pool.
func TestPooledFramesSurvivePoisonedRelease(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		eng := sim.New(1)
		link := netdev.NewLink(eng, netdev.LinkConfig{BitsPerSec: 10_000_000, Delay: 20 * time.Microsecond})
		cfg := appliance.DefaultConfig()
		cfg.RefreshHz = 2000
		k, err := appliance.Boot(eng, link, cfg)
		if err != nil {
			t.Fatal(err)
		}
		queueLen := 32
		if lossy {
			link.InjectFaults(netdev.FaultPlan{Loss: 0.02, Dup: 0.05, Reorder: 0.05})
			k.MFLOW.HoldTimeout = 5 * time.Second
			queueLen = 256 // a repaired hole releases a burst of frames
		}
		h := New(link, netdev.MAC{2, 0, 0, 0, 0, 0x20}, inet.IP(10, 0, 0, 20))
		pool := usePoisonPool(h)
		p, lport, err := k.CreateVideoPath(&appliance.VideoAttrs{
			Source:    inet.Participants{RemoteAddr: h.Addr, RemotePort: 7000},
			FPS:       2000,
			CostModel: true,
			QueueLen:  queueLen,
			Reliable:  lossy,
		})
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewSource(h, SourceConfig{Prepared: PrepareClip(poolClip, 0, 3), SrcPort: 7000, MaxRate: true, Retransmit: lossy})
		if err != nil {
			t.Fatal(err)
		}
		src.Start(cfg.Addr, lport)
		if lossy {
			eng.After(20*time.Millisecond, func() { sendStaleFragments(h, cfg.Addr, lport, 7000, src.packets[0]) })
		}
		eng.RunFor(30 * time.Second)

		if done, _ := src.Done(); !done {
			t.Fatalf("lossy=%v: source stalled at %d of %d packets", lossy, src.PacketsSent, src.NumPackets())
		}
		ci, cp, _ := routers.MPEGCompleteByKind(p, "MPEG")
		if got, want := ci+cp, int64(src.NumFrames()); got != want {
			t.Errorf("lossy=%v: %d of %d frames came out whole", lossy, got, want)
		}
		if st := k.UDP.Stats(); st.BadChecksum != 0 {
			t.Errorf("lossy=%v: %d datagrams failed their checksum", lossy, st.BadChecksum)
		}
		st := pool.inner.Stats()
		if st.Outstanding != 0 || len(pool.out) != 0 {
			t.Errorf("lossy=%v: %d buffers never came back (%d tracked)", lossy, st.Outstanding, len(pool.out))
		}
		if st.Hits == 0 || st.Created > framePoolLimit {
			t.Errorf("lossy=%v: pool never recycled or outgrew its limit: %+v", lossy, st)
		}
		if lossy {
			if fs := link.FaultStats(); fs.Dupped == 0 || fs.Reordered == 0 || src.Retransmits == 0 {
				t.Errorf("the wire was too kind: %+v, %d retransmits", fs, src.Retransmits)
			}
			if rs := k.IP.Stats(); rs.Reassembled == 0 {
				t.Errorf("no datagram was reassembled: %+v", rs)
			}
		}
	}
}

// TestSendAckRoundTripZeroAlloc is the sender's steady state: an ack that
// opens the window by one arrives, is parsed where it lies, and the next
// packet leaves in a pooled frame with its stored sum folded in. Nothing in
// that round trip allocates. (A Retransmit source also remembers the packet in
// mflow.Sender's sliding slice, which reallocates once per capacity's worth of
// packets.)
func TestSendAckRoundTripZeroAlloc(t *testing.T) {
	eng, a, b := twoHosts(t)
	a.arpCache[b.Addr] = b.Dev.Addr
	s, err := NewSource(a, SourceConfig{Prepared: PrepareClip(poolClip, 0, 3), SrcPort: 7000, MaxRate: true, InitialWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPackets() < 300 {
		t.Fatalf("clip has %d packets, too few for the runs below", s.NumPackets())
	}
	s.Start(b.Addr, 8000)

	// The acks arrive in buffers of their own ring, as from a NIC.
	ackLen := eth.HeaderLen + ip.HeaderLen + udp.HeaderLen + mflow.HeaderLen
	ring := fbuf.NewPool(ackLen, 0, 1, 1)
	round := func() {
		eng.RunFor(2 * time.Millisecond) // the packet reaches b, which frees it
		m, err := ring.Get(ackLen)
		if err != nil {
			t.Fatal(err)
		}
		f := m.Bytes()
		eth.Header{Dst: a.Dev.Addr, Src: b.Dev.Addr, Type: inet.EtherTypeIP}.Put(f)
		ip.Header{TotalLen: uint16(ackLen - eth.HeaderLen), TTL: 64, Proto: inet.ProtoUDP, Src: b.Addr, Dst: a.Addr}.Put(f[eth.HeaderLen:])
		udp.Header{SrcPort: 8000, DstPort: 7000, Length: udp.HeaderLen + mflow.HeaderLen}.Put(f[eth.HeaderLen+ip.HeaderLen:])
		mflow.Header{Kind: mflow.KindAck, Seq: s.seq, Win: s.seq + 1, TS: int64(eng.Now())}.Put(f[ackLen-mflow.HeaderLen:])
		a.receive(m)
	}
	for i := 0; i < 100; i++ { // size the link's ring and the free lists
		round()
	}
	sent := s.PacketsSent
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Fatalf("an ack in and a packet out allocate %.1f objects, want 0", allocs)
	}
	if s.PacketsSent-sent != 101 || s.AcksReceived < 201 {
		t.Fatalf("the rounds did not each move one packet: sent %d, acks %d", s.PacketsSent-sent, s.AcksReceived)
	}
}

// TestAbandonedWorldKeepsItsBuffers drops several worlds with a pool's worth
// of frames on the wire, which nothing will ever free. The pool's limit
// counts those buffers for good, so the pool must go with the world: a source
// in the next world draws pooled frames as if nothing had happened.
func TestAbandonedWorldKeepsItsBuffers(t *testing.T) {
	// The peer sends no acks, so the window is wide open from the start: at
	// maximum rate the whole clip leaves at once, paced it leaves a frame at a
	// time.
	play := func(maxRate bool, d time.Duration) (*Source, fbuf.Stats) {
		eng, a, b := twoHosts(t)
		a.arpCache[b.Addr] = b.Dev.Addr
		s, err := NewSource(a, SourceConfig{Prepared: PrepareClip(poolClip, 0, 3), SrcPort: 7000, FPS: 30, MaxRate: maxRate, InitialWindow: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		s.Start(b.Addr, 8000)
		eng.RunFor(d)
		return s, a.frames.(*fbuf.Pool).Stats()
	}
	for i := 0; i < 3; i++ {
		if _, st := play(true, 0); st.Outstanding != framePoolLimit || st.Exhausted == 0 {
			t.Fatalf("world %d was dropped with %d frames out, want a full pool: %+v", i, st.Outstanding, st)
		}
	}
	s, st := play(false, 10*time.Second)
	if st.Outstanding != 0 || st.Hits == 0 || st.Misses > framePoolLimit {
		t.Fatalf("after three abandoned worlds the pool reads %+v", st)
	}
	if want := int64(s.NumPackets()); st.Hits+st.Misses+st.Exhausted != want {
		t.Fatalf("%d packets sent, pool saw %+v", want, st)
	}
}
