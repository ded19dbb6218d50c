package host

import (
	"fmt"
	"time"

	"scout/internal/mpeg"
	"scout/internal/msg"
	"scout/internal/proto/inet"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
	"scout/internal/sim"
)

// SourceConfig parameterizes an MPEG video source.
type SourceConfig struct {
	Clip    mpeg.ClipSpec
	SrcPort uint16

	// CostOnly sends trace packets (valid ALF headers, synthetic payload
	// bytes sized from the clip trace) instead of really encoded video.
	CostOnly bool
	// RealFrames bounds how many frames are encoded in real mode (0 = the
	// whole clip; encoding is expensive, tests use short prefixes).
	RealFrames int
	// QScale and SearchRange configure the real encoder.
	QScale, SearchRange int

	// MaxRate ignores the clip frame rate and sends as fast as flow
	// control allows — how Table 1's "maximum decoding rate" is driven.
	MaxRate bool
	// FPS overrides the clip's native rate for paced sending (0 = native).
	FPS int

	// InitialWindow is the flow-control credit assumed before the first
	// advertisement arrives (default 16 packets).
	InitialWindow uint32

	// Retransmit enables sender-side retransmission: unacknowledged
	// packets are buffered and re-sent on timeout (exponential backoff,
	// MaxTries cap) or after three duplicate cumulative acks.
	Retransmit bool
	// RTOMin and RTOMax bound the retransmission timeout (defaults 50ms
	// and 500ms).
	RTOMin, RTOMax time.Duration
	// MaxTries caps transmissions per packet (default 8).
	MaxTries int

	// PayloadBudget bounds ALF packet payloads (default: MTU-fitting).
	PayloadBudget int
	// Seed makes the trace deterministic.
	Seed int64

	// Backpressure makes the sender honour shrinking window advertisements
	// (latest advertisement wins) instead of the historical raise-only rule,
	// so a degraded receiver can throttle the source (§4.4). Off by default:
	// raise-only is what the recorded E9/Table 1 runs used.
	Backpressure bool

	// Live models a live capture source: packets are paced at the frame
	// rate regardless of the advertised window — a camera cannot pause.
	// Advertisements still update RTT. Under receiver overload a live
	// stream forces the choice E11 measures: shed load deliberately
	// (frame-kind early discard) or tail-drop indiscriminately.
	Live bool

	// Prepared, when set, supplies the packet stream directly and skips
	// preparation; Clip/CostOnly/PayloadBudget/Seed are ignored. The scale
	// experiments share one PrepareClip result across 10^5 sources: nothing
	// writes to a Prepared once it is built, so sharing is safe even across
	// cluster shards.
	Prepared *Prepared
}

// Prepared is a clip's ALF packet stream, built once and shared by any number
// of sources.
type Prepared struct {
	packets []alfPacket
}

// alfPacket is one ALF packet of a stream: the bytes head followed by zeros
// zero bytes. A really encoded packet is all head; a cost-model packet is its
// header and the length of its synthetic payload, which is all zeros.
type alfPacket struct {
	head  []byte
	zeros int
	frame int // index of the frame the packet belongs to
	// sum is what the packet adds to the UDP checksum of any datagram that
	// carries it, at the parity its bytes have behind a UDP and an MFLOW
	// header. Its bytes never change, so they are summed once, when the
	// packet is built, and never again by the sender; zeros add nothing.
	sum uint16
}

func newALFPacket(head []byte, zeros, frame int) alfPacket {
	s := inet.Fold(inet.Sum(0, head))
	if (udp.HeaderLen+mflow.HeaderLen)%2 == 1 {
		s = inet.SwapSum(s)
	}
	return alfPacket{head: head, zeros: zeros, frame: frame, sum: s}
}

// NumPackets reports the prepared stream's packet count.
func (p *Prepared) NumPackets() int { return len(p.packets) }

// PrepareClip builds the cost-model packet stream for clip exactly as a
// CostOnly NewSource would. It keeps each packet's 15-byte ALF header and the
// length of its payload, never the payload itself.
func PrepareClip(clip mpeg.ClipSpec, payloadBudget int, seed int64) *Prepared {
	mbw, mbh := clip.W/16, clip.H/16
	trace := clip.Trace(seed)
	n := 0
	for fno, info := range trace {
		mpeg.TraceLayout(uint32(fno), info, mbw, mbh, payloadBudget, func(mpeg.Packet, int) { n++ })
	}
	p := &Prepared{packets: make([]alfPacket, 0, n)}
	heads := make([]byte, n*mpeg.PacketHeaderLen)
	for fno, info := range trace {
		mpeg.TraceLayout(uint32(fno), info, mbw, mbh, payloadBudget, func(hdr mpeg.Packet, payload int) {
			head := heads[:mpeg.PacketHeaderLen:mpeg.PacketHeaderLen]
			hdr.PutHeader(head)
			p.packets = append(p.packets, newALFPacket(head, payload, fno))
			heads = heads[mpeg.PacketHeaderLen:]
		})
	}
	return p
}

// Source streams one clip to a Scout MPEG path, honouring MFLOW's window
// advertisements and measuring RTT from echoed timestamps (§4.2).
type Source struct {
	h   *Host
	cfg SourceConfig

	// Multipath sender state: subflow i sends from subs[i].h/subs[i].port
	// (empty = single-path, the Source's own host and SrcPort). Dispatch
	// picks the subflow per packet; when nil everything rides subflow 0.
	subs []subflow

	// Dispatch, when set, picks the subflow for each outbound packet —
	// typically an mpath.PathSet's Dispatch. It runs once per transmission
	// (including retransmissions, retx=true) at sender dispatch time.
	Dispatch func(seq uint32, retx bool) int
	// OnSubAck observes each cumulatively acknowledged packet with the
	// subflow it last rode; OnSubLoss observes each loss signal (fast
	// retransmit or RTO) the same way. Both feed subpath quality tracking.
	OnSubAck  func(sub int)
	OnSubLoss func(sub int)

	dst     inet.Addr
	dstPort uint16

	packets []alfPacket // in order
	next    int
	seq     uint32
	win     uint32
	started sim.Time
	// waitTick is the one pacing/probe timer, re-armed in place. Pacing arms
	// it once per frame, so that callback is bound once.
	waitTick  sim.Event
	trySendFn func()

	done   bool
	doneAt sim.Time

	// snd is the reliable-MFLOW sender: it buffers what Retransmit sources
	// have in flight, and measures RTT from echoed timestamps for every
	// source. Its counters are the embedded SenderStats.
	snd mflow.Sender[srcPkt]

	AcksReceived int64
	PacketsSent  int64
	Probes       int64 // window probes sent while blocked (Backpressure)
	mflow.SenderStats
}

// srcPkt is what a Source remembers of a packet in flight.
type srcPkt struct {
	idx int // index into packets (payload is rebuilt on re-send)
	sub int // subflow of the most recent transmission
}

// subflow is one sender endpoint of a multipath source.
type subflow struct {
	h    *Host
	port uint16
}

// NewSource prepares the clip data. Real-mode encoding happens here, once.
func NewSource(h *Host, cfg SourceConfig) (*Source, error) {
	if cfg.SrcPort == 0 {
		return nil, fmt.Errorf("host: source needs a SrcPort")
	}
	if cfg.InitialWindow == 0 {
		cfg.InitialWindow = 16
	}
	if cfg.RTOMin == 0 {
		// Above the ack jitter of a decode-bound receiver (~20ms/frame):
		// fast retransmit handles prompt recovery, the RTO is a backstop.
		cfg.RTOMin = 50 * time.Millisecond
	}
	if cfg.RTOMax == 0 {
		cfg.RTOMax = 500 * time.Millisecond
	}
	if cfg.MaxTries == 0 {
		cfg.MaxTries = 8
	}
	s := &Source{h: h, cfg: cfg, win: cfg.InitialWindow}
	s.trySendFn = s.trySend
	s.snd = mflow.NewSender[srcPkt](h.eng, &s.SenderStats, cfg.RTOMin, cfg.RTOMax, cfg.MaxTries)
	if cfg.Retransmit {
		// The dispatch policy may move a re-sent packet to a different
		// subflow than the original.
		s.snd.Resend = func(seq uint32, p *srcPkt) { p.sub = s.sendPacket(seq, p.idx, true) }
		s.snd.OnAcked = func(p *srcPkt) {
			if s.OnSubAck != nil {
				s.OnSubAck(p.sub)
			}
		}
		s.snd.OnLoss = func(p *srcPkt) {
			if s.OnSubLoss != nil {
				s.OnSubLoss(p.sub)
			}
		}
	}
	clip := cfg.Clip
	prep := cfg.Prepared
	if prep == nil && cfg.CostOnly {
		prep = PrepareClip(clip, cfg.PayloadBudget, cfg.Seed)
	}
	if prep != nil {
		s.packets = prep.packets
	} else {
		qs := cfg.QScale
		if qs == 0 {
			qs = 3
		}
		sr := cfg.SearchRange
		if sr == 0 {
			sr = 4
		}
		enc, err := mpeg.NewEncoder(mpeg.EncoderConfig{
			W: clip.W, H: clip.H, GOP: clip.GOP, QScale: qs,
			SearchRange: sr, PayloadBudget: cfg.PayloadBudget,
		})
		if err != nil {
			return nil, err
		}
		scene := mpeg.NewScene(clip.Scene)
		n := clip.Frames
		if cfg.RealFrames > 0 && cfg.RealFrames < n {
			n = cfg.RealFrames
		}
		for fno := 0; fno < n; fno++ {
			pkts, _ := enc.Encode(scene.Frame(fno))
			for _, p := range pkts {
				s.packets = append(s.packets, newALFPacket(p.Marshal(), 0, fno))
			}
		}
	}
	return s, nil
}

// NumPackets reports how many packets the source will send.
func (s *Source) NumPackets() int { return len(s.packets) }

// NumFrames reports how many frames the prepared stream has.
func (s *Source) NumFrames() int {
	if len(s.packets) == 0 {
		return 0
	}
	return s.packets[len(s.packets)-1].frame + 1
}

// Done reports whether every packet has been sent, and when.
func (s *Source) Done() (bool, sim.Time) { return s.done, s.doneAt }

// AddSubflow registers one more sender endpoint for multipath striping and
// returns its subflow index. The first call promotes the Source's own
// host/SrcPort to subflow 0. Each subflow's acks return to its own port, so
// the handlers installed by Start cover every endpoint; call before Start.
func (s *Source) AddSubflow(h *Host, srcPort uint16) int {
	if len(s.subs) == 0 {
		s.subs = append(s.subs, subflow{h: s.h, port: s.cfg.SrcPort})
	}
	s.subs = append(s.subs, subflow{h: h, port: srcPort})
	return len(s.subs) - 1
}

// subflowCount reports how many subflows the source sends on (1 when
// single-path).
func (s *Source) subflowCount() int {
	if len(s.subs) == 0 {
		return 1
	}
	return len(s.subs)
}

// Start begins streaming to the Scout host's video port.
func (s *Source) Start(dst inet.Addr, dstPort uint16) {
	s.dst = dst
	s.dstPort = dstPort
	s.started = s.h.eng.Now()
	if len(s.subs) == 0 {
		s.h.OnUDP(s.cfg.SrcPort, s.onAck)
	} else {
		for _, sf := range s.subs {
			sf.h.OnUDP(sf.port, s.onAck)
		}
	}
	s.trySend()
}

// onAck processes an MFLOW window advertisement.
func (s *Source) onAck(src inet.Participants, payload []byte) {
	h, err := mflow.Parse(payload)
	if err != nil || h.Kind != mflow.KindAck {
		return
	}
	s.AcksReceived++
	if s.cfg.Backpressure {
		// Latest advertisement wins, but never below what was already sent:
		// in-flight packets cannot be recalled, so clamping to s.seq keeps
		// the send loop's invariant (seq+1 <= win resumes exactly where the
		// receiver re-opens the window).
		if h.Win >= s.seq {
			s.win = h.Win
		} else {
			s.win = s.seq
		}
	} else if h.Win > s.win {
		s.win = h.Win
	}
	s.snd.Ack(h.Seq, h.TS)
	s.trySend()
}

// RedispatchUnacked re-sends every unacknowledged packet immediately, in
// sequence order, through the dispatch policy — the sender half of a path
// failover, typically called from OnSubLoss when the policy retires a
// subflow whose wire died (see mflow.Sender.Redispatch).
func (s *Source) RedispatchUnacked() { s.snd.Redispatch() }

// sendPacket wraps one prepared ALF packet in an MFLOW data header (fresh
// timestamp), asks the dispatch policy which subflow carries it, and ships
// it to the Scout host. The MFLOW header and the ALF bytes go straight into
// the message that reaches the wire, a buffer of the sending host's frame
// pool while it has one: the packet's head is copied and its zeros are
// cleared, the only pass over the ALF bytes, whose share of the UDP checksum
// was summed when the clip was prepared. Returns the subflow used.
func (s *Source) sendPacket(seq uint32, idx int, retx bool) int {
	sub := 0
	if s.Dispatch != nil {
		sub = s.Dispatch(seq, retx)
	}
	if sub < 0 || sub >= s.subflowCount() {
		sub = 0
	}
	h, port := s.h, s.cfg.SrcPort
	if len(s.subs) > 0 {
		h, port = s.subs[sub].h, s.subs[sub].port
	}
	p := &s.packets[idx]
	n := mflow.HeaderLen + len(p.head) + p.zeros
	m, err := h.frames.Get(n)
	if err != nil { // pool at its limit, or a packet larger than its buffers
		m = msg.NewWithHeadroom(udpHeadroom, n)
	}
	payload := m.Bytes()
	mflow.Header{Kind: mflow.KindData, Seq: seq, TS: int64(s.h.eng.Now())}.Put(payload[:mflow.HeaderLen])
	alf := payload[mflow.HeaderLen:]
	clear(alf[copy(alf, p.head):]) // pool buffers come back dirty
	h.transmitUDP(s.dst, s.dstPort, port, m, mflow.HeaderLen, p.sum)
	s.PacketsSent++
	return sub
}

// trySend transmits every packet the window (and pacing) currently allows.
func (s *Source) trySend() {
	if s.done {
		return
	}
	fps := s.cfg.FPS
	if fps == 0 {
		fps = s.cfg.Clip.FPS
	}
	for s.next < len(s.packets) && (s.cfg.Live || s.seq+1 <= s.win) {
		if !s.cfg.MaxRate {
			due := s.started.Add(time.Duration(s.packets[s.next].frame) * time.Second / time.Duration(fps))
			now := s.h.eng.Now()
			if now < due {
				s.h.eng.Rearm(&s.waitTick, due, s.trySendFn)
				return
			}
		}
		s.seq++
		sub := s.sendPacket(s.seq, s.next, false)
		if s.cfg.Retransmit {
			s.snd.Sent(s.seq, srcPkt{idx: s.next, sub: sub})
		}
		s.next++
	}
	if s.next == len(s.packets) {
		s.done = true
		s.doneAt = s.h.eng.Now()
		return
	}
	if s.cfg.Backpressure && s.seq+1 > s.win {
		// Window closed under backpressure. The receiver acks only on
		// arrivals, so a fully blocked sender must probe (TCP's persist
		// timer): re-send the last packet as a duplicate. If the receiver
		// has room, the duplicate is discarded as old but still acked with
		// the current window and the stream resumes; if its queue is full,
		// the probe tail-drops and nothing of value is lost. Shed runs
		// don't stall the probe loop: early-discarded packets still
		// advance the advertised window (mflow.NoteShed).
		s.h.eng.Rearm(&s.waitTick, s.h.eng.Now().Add(s.cfg.RTOMin), s.probe)
	}
}

// probe is the blocked sender's persist timer firing.
func (s *Source) probe() {
	if s.done {
		return
	}
	if s.seq+1 > s.win && s.next > 0 {
		s.Probes++
		s.sendPacket(s.seq, s.next-1, true)
	}
	s.trySend() // re-arms the probe while still blocked
}
