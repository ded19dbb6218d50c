// Package mflow implements MFLOW, the paper's simple flow-control protocol
// (§4.1): sequence numbers give ordered delivery, the receiver advertises
// the maximum sequence number it is willing to accept based on the last
// processed packet and the input queue size, and a header timestamp lets the
// sender measure round-trip latency (§4.2).
//
// Delivery comes in two flavours, chosen per path with the PA_MFLOW_RELIABLE
// attribute. The default is the paper's ordered-but-unreliable mode: packets
// are delivered in arrival order, losses surface as Gaps, and a small recent
// window distinguishes true duplicates from reordered late originals. The
// reliable mode adds loss tolerance on both sides: the receiver resequences
// out-of-order data (holding it briefly for a missing predecessor) and acks
// cumulatively, while the sender keeps a window-bounded buffer of
// unacknowledged packets and retransmits on timeout (exponential backoff,
// capped tries) or after three duplicate acks.
package mflow

import (
	"encoding/binary"
	"errors"
	"sort"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/fbuf"
	"scout/internal/msg"
	"scout/internal/sim"
)

// AttrReliable re-exports the reliable-mode path attribute.
const AttrReliable = attr.MFLOWReliable

// HeaderLen is the length of an MFLOW header.
const HeaderLen = 17

// Packet kinds.
const (
	KindData = 1
	KindAck  = 2
)

// Header is an MFLOW header. For data, Seq numbers the packet and TS is the
// sender's send time. For acks, Seq is the cumulative acknowledgment (every
// sequence number at or below it arrived), Win the advertised maximum
// acceptable sequence number, and TS echoes the data packet's timestamp.
type Header struct {
	Kind uint8
	Seq  uint32
	Win  uint32
	TS   int64
}

// Put writes the header into b[:HeaderLen].
func (h Header) Put(b []byte) {
	b[0] = h.Kind
	binary.BigEndian.PutUint32(b[1:5], h.Seq)
	binary.BigEndian.PutUint32(b[5:9], h.Win)
	binary.BigEndian.PutUint64(b[9:17], uint64(h.TS))
}

// Parse reads a header from the front of b.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, errors.New("mflow: short header")
	}
	return Header{
		Kind: b[0],
		Seq:  binary.BigEndian.Uint32(b[1:5]),
		Win:  binary.BigEndian.Uint32(b[5:9]),
		TS:   int64(binary.BigEndian.Uint64(b[9:17])),
	}, nil
}

// Stats counts per-flow protocol behaviour.
type Stats struct {
	// Receiver side.
	Delivered   int64 // data packets delivered upward
	OldDrops    int64 // true duplicates (or packets older than the dedup window)
	Late        int64 // reordered originals delivered after a newer packet
	Gaps        int64 // sequence numbers never delivered upward
	AcksSent    int64
	HoldFlushes int64 // reliable: hold buffer flushed with holes outstanding

	// Sender side.
	AcksSeen int64
	SenderStats
}

// Impl is the MFLOW router implementation.
type Impl struct {
	eng *sim.Engine

	// PerPacketCost is the CPU charged per MFLOW header processed.
	PerPacketCost time.Duration
	// AckEvery controls how many data arrivals elapse between window
	// advertisements.
	AckEvery int
	// RecentWindow bounds the receiver's duplicate-detection memory (and
	// the reliable hold buffer), in sequence numbers behind the highest
	// seen.
	RecentWindow uint32
	// HoldTimeout bounds how long a reliable receiver holds out-of-order
	// packets for a missing predecessor before flushing them upward.
	HoldTimeout time.Duration
	// RTOMin and RTOMax bound the sender's retransmission timeout.
	RTOMin, RTOMax time.Duration
	// MaxTries caps transmissions per packet before the sender gives up.
	MaxTries int

	// ackPool recycles the fixed-size ack buffers: acks are the one message
	// the receive data path originates (one per AckEvery data packets), so
	// allocating them fresh would break the zero-alloc steady state. Header
	// Put writes all HeaderLen bytes, so dirty reuse is safe.
	ackPool *fbuf.Pool
}

// New returns an MFLOW router.
func New(eng *sim.Engine) *Impl {
	return &Impl{
		eng:           eng,
		PerPacketCost: time.Microsecond,
		AckEvery:      1,
		RecentWindow:  256,
		// Recovery ordering: fast retransmit (a few packet times) beats the
		// RTO backstop, which beats the hold flush — so a hole is almost
		// always repaired before anything is given up on. The hold ceiling
		// out-waits a chain of unlucky retransmissions (lost on the wire,
		// or dropped at a full input queue the advertised window doesn't
		// reserve for them): 50+100+200+400ms of backoff still beats 1s.
		// The RTO floor sits above the ack jitter a decode-bound path
		// produces (acks turn around after ~20ms of frame decode), or
		// every stall would look like a loss.
		HoldTimeout: time.Second,
		RTOMin:      50 * time.Millisecond,
		RTOMax:      500 * time.Millisecond,
		MaxTries:    8,
		ackPool:     fbuf.NewPool(HeaderLen, 64, 4, 0),
	}
}

// Services declares up (MPEG) and down (UDP, init first).
func (f *Impl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{
		{Name: "up", Type: core.NetServiceType},
		{Name: "down", Type: core.NetServiceType, InitAfterPeers: true},
	}
}

// Init has nothing to wire: classification ends at UDP, whose stage already
// identifies the path.
func (f *Impl) Init(r *core.Router) error { return nil }

// flowState is the per-flow receiver/sender state. A single-path flow owns
// exactly one; a multipath flow shares one flowState across the primary path
// and every joined sibling subpath (PA_MPATH_JOIN), which is what gives the
// flow one sequence space, one hold buffer, and one advertised window no
// matter how many links its packets arrive over.
type flowState struct {
	impl     *Impl
	reliable bool

	// Receiver state. cumSeq is the cumulative watermark: every sequence
	// number at or below it was delivered upward (or given up on); maxSeq
	// is the highest sequence seen. In unreliable mode, recent marks
	// delivered seqs in (cumSeq, maxSeq]; in reliable mode, held buffers
	// undelivered out-of-order packets in that range.
	started   bool
	cumSeq    uint32
	maxSeq    uint32
	holdSeq   uint32 // cumSeq when the hold timer was armed (which hole it watches)
	winCap    uint32 // advertised-window cap beyond cumSeq (0 = uncapped)
	recent    map[uint32]bool
	held      map[uint32]*msg.Msg
	holdTimer sim.Event // owner-held, re-armed in place
	sinceAck  int
	lastTS    int64
	inQ       *core.Queue
	// arrivals lists every subpath's arrival state in join order (the
	// primary first). The advertised window is bounded by the *tightest*
	// subpath queue: a striping sender spreads the in-flight window over
	// all of them, so advertising one queue's free space would overflow
	// the others.
	arrivals []*arrival
	bwdIface *core.NetIface // primary path's BWD iface: all upward deliveries

	// observer, when set, sees every data arrival with the subpath it came
	// in on, the sender→receiver one-way latency on the shared virtual
	// clock, and the arrival path's device-end queue depth — the
	// pathtrace-style quality feed multipath selection policies consume.
	observer func(sub int, oneWay time.Duration, qdepth int)

	// Sender state. In reliable mode snd buffers, per packet in flight, an
	// independent copy of the MFLOW header plus payload, ready to re-enter
	// the path below the MFLOW stage (downstream stages push their own
	// headers).
	nextOut  uint32
	sendWin  uint32
	snd      Sender[[]byte]
	fwdIface *core.NetIface

	stats Stats
}

// arrival identifies which subpath of a flow an MFLOW packet came in on:
// the subpath index (0 for the primary or a single-path flow) and the
// arrival path's device-end input queue, sampled for the quality observer.
type arrival struct {
	sub int
	inQ *core.Queue
}

// CreateStage contributes the MFLOW stage. With PA_MPATH_JOIN set to an
// established primary path, the stage joins that path's flow: it shares the
// primary's flowState (sequence space, hold buffer, window, stats) and its
// own path only carries packets — data delivered upward re-enters the
// primary's chain above MFLOW, while acks turn around on whichever subpath
// the data arrived on, so each link's acks measure that link's round trip.
func (f *Impl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	var fs *flowState
	joined := false
	if v, ok := a.Get(attr.MPathJoin); ok {
		prim, ok := v.(*core.Path)
		if !ok || prim == nil {
			return nil, nil, errors.New("mflow: PA_MPATH_JOIN is not a *core.Path")
		}
		ps := prim.StageOf(r.Name)
		if ps == nil {
			return nil, nil, errors.New("mflow: join target has no MFLOW stage")
		}
		pfs, ok := ps.Data.(*flowState)
		if !ok {
			return nil, nil, errors.New("mflow: join target's MFLOW stage has foreign state")
		}
		fs = pfs
		joined = true
	} else {
		fs = &flowState{impl: f}
		fs.snd = NewSender[[]byte](f.eng, &fs.stats.SenderStats, f.RTOMin, f.RTOMax, f.MaxTries)
		if v, ok := a.Get(attr.MFLOWReliable); ok {
			fs.reliable, _ = v.(bool)
		}
		if fs.reliable {
			fs.held = make(map[uint32]*msg.Msg)
			fs.snd.Resend = fs.retransmit
		} else {
			fs.recent = make(map[uint32]bool)
		}
	}
	ar := &arrival{sub: a.IntDefault(attr.MPathSub, 0)}
	fs.arrivals = append(fs.arrivals, ar)
	s := &core.Stage{Data: fs}
	fwd := core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return fs.output(i, m)
	})
	bwd := core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return fs.input(i, m, ar)
	})
	s.SetIface(core.FWD, fwd)
	s.SetIface(core.BWD, bwd)
	if !joined {
		fs.fwdIface, fs.bwdIface = fwd, bwd
	}
	s.Establish = func(s *core.Stage, a *attr.Attrs) error {
		// The input queue at the device end of this path: for the flow's
		// primary it backs the advertised window; for every subpath it
		// feeds the quality observer's queue-depth sample.
		d, ok := s.Path.IncomingDir(s.Path.End[1].Router.Name)
		if !ok {
			d = core.BWD
		}
		ar.inQ = s.Path.Q[core.QIn(d)]
		if !joined {
			fs.inQ = ar.inQ
		}
		return nil
	}
	if !joined {
		// A joined sibling's death must not tear down the shared flow: only
		// the primary owns the timers and buffers.
		s.Destroy = func(s *core.Stage) { fs.teardown() }
	}
	down, err := r.Link("down")
	if err != nil {
		return nil, nil, err
	}
	return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

// teardown cancels timers and frees buffered packets at path deletion.
func (fs *flowState) teardown() {
	fs.holdTimer.Cancel()
	fs.snd.Stop()
	// Free in sequence order: the msg pool's free list is LIFO, so the order
	// buffers return to it is observable in later allocations.
	seqs := make([]uint32, 0, len(fs.held))
	for s := range fs.held {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		m := fs.held[s]
		delete(fs.held, s)
		m.Free()
	}
}

// output sends a data packet (Scout as MFLOW sender).
func (fs *flowState) output(i *core.NetIface, m *msg.Msg) error {
	f := fs.impl
	i.Path().ChargeExec(f.PerPacketCost)
	fs.nextOut++
	h := Header{Kind: KindData, Seq: fs.nextOut, TS: int64(f.eng.Now())}
	h.Put(m.Push(HeaderLen))
	if fs.reliable {
		// Buffer an independent copy for retransmission (the original's
		// buffer keeps moving down the path and onto the wire).
		buf := make([]byte, m.Len())
		copy(buf, m.Bytes())
		err := i.DeliverNext(m)
		fs.snd.Sent(fs.nextOut, buf)
		// The buffer is bounded by the advertised window: the receiver
		// accepts nothing beyond it, so older copies past the window plus
		// a minimal initial credit are dead weight.
		limit := 32
		if acked := fs.nextOut - uint32(fs.snd.Outstanding()); fs.sendWin > acked {
			limit += int(fs.sendWin - acked)
		}
		fs.snd.Trim(limit)
		return err
	}
	return i.DeliverNext(m)
}

// input processes an arriving MFLOW packet: acks feed the sender machinery;
// data is deduplicated, delivered (resequenced in reliable mode), and
// acknowledged. i is the arrival subpath's iface — acks turn around on it —
// while data always climbs the primary's chain (fs.bwdIface); for a
// single-path flow the two are the same iface.
func (fs *flowState) input(i *core.NetIface, m *msg.Msg, ar *arrival) error {
	f := fs.impl
	p := i.Path()
	p.ChargeExec(f.PerPacketCost)
	raw, err := m.Pop(HeaderLen)
	if err != nil {
		m.Free()
		return err
	}
	h, err := Parse(raw)
	if err != nil {
		m.Free()
		return err
	}
	if h.Kind != KindData {
		if h.Kind == KindAck {
			fs.senderAck(h)
		}
		m.Free()
		return nil
	}
	if fs.observer != nil {
		depth := 0
		if ar.inQ != nil {
			depth = ar.inQ.Len()
		}
		fs.observer(ar.sub, f.eng.Now().Sub(sim.Time(h.TS)), depth)
	}
	fs.lastTS = h.TS
	if !fs.started {
		fs.started = true
		// Seqs start at 1; a first arrival within the recent window means
		// the stream started here (tolerate pre-arrival loss), anything
		// higher means this path joined mid-stream.
		if h.Seq > f.RecentWindow {
			fs.cumSeq = h.Seq - 1
		}
		fs.maxSeq = fs.cumSeq
	}
	if h.Seq <= fs.cumSeq || fs.recent[h.Seq] || (fs.held != nil && fs.held[h.Seq] != nil) {
		// A true duplicate (or older than the dedup window). Still ack:
		// duplicates usually mean the sender missed our acknowledgment.
		fs.stats.OldDrops++
		fs.ackMaybe(i)
		m.Free()
		return nil
	}
	if fs.reliable {
		return fs.inputReliable(i, h, m)
	}
	// Arrival-order mode: deliver immediately. A jump past maxSeq counts
	// the skipped seqs as (provisional) gaps; a late original arriving
	// afterwards is delivered and un-counts its gap.
	late := h.Seq < fs.maxSeq
	if h.Seq > fs.maxSeq {
		if h.Seq > fs.maxSeq+1 {
			fs.stats.Gaps += int64(h.Seq - fs.maxSeq - 1)
		}
		fs.maxSeq = h.Seq
	}
	fs.markDelivered(h.Seq)
	if late {
		fs.stats.Late++
		fs.stats.Gaps--
	}
	fs.stats.Delivered++
	fs.ackMaybe(i)
	return fs.bwdIface.DeliverNext(m)
}

// inputReliable resequences: in-order data flows upward at once (pulling any
// buffered successors behind it), out-of-order data waits in the hold buffer
// for its missing predecessor, bounded by HoldTimeout.
func (fs *flowState) inputReliable(i *core.NetIface, h Header, m *msg.Msg) error {
	f := fs.impl
	if h.Seq > fs.maxSeq {
		fs.maxSeq = h.Seq
	}
	if h.Seq == fs.cumSeq+1 {
		fs.cumSeq++
		fs.stats.Delivered++
		err := fs.bwdIface.DeliverNext(m)
		fs.drainHeld()
		fs.ackMaybe(i)
		return err
	}
	fs.held[h.Seq] = m
	if uint32(len(fs.held)) > f.RecentWindow {
		fs.flushHeld()
	} else {
		fs.rearmHold()
	}
	// The duplicate ack below (still carrying the old cumSeq) is what
	// drives the sender's fast retransmit.
	fs.ackMaybe(i)
	return nil
}

// drainHeld delivers consecutively held packets above cumSeq.
func (fs *flowState) drainHeld() {
	for {
		m := fs.held[fs.cumSeq+1]
		if m == nil {
			break
		}
		delete(fs.held, fs.cumSeq+1)
		fs.cumSeq++
		fs.stats.Delivered++
		if err := fs.bwdIface.DeliverNext(m); err != nil {
			break // the upper stage consumed (and freed) the message
		}
	}
	fs.rearmHold()
}

// rearmHold keeps the hold timer honest about *which* hole it is waiting
// out: whenever the cumulative watermark moves while packets are still held,
// the oldest hole is a different (younger) one and its clock must restart.
// Without this the timer ages against a long-filled hole and gives up on
// healthy in-flight packets at a fixed cadence — fatal under cross-path
// striping, where the hold buffer is almost never empty.
func (fs *flowState) rearmHold() {
	if len(fs.held) == 0 {
		fs.holdTimer.Cancel()
		return
	}
	if !fs.holdTimer.Queued() || fs.holdSeq != fs.cumSeq {
		fs.holdSeq = fs.cumSeq
		eng := fs.impl.eng
		eng.Rearm(&fs.holdTimer, eng.Now().Add(fs.impl.HoldTimeout), fs.onHoldTimeout)
	}
}

// onHoldTimeout gives up on the oldest hole only: everything behind the
// second hole may still be repaired by a retransmission already in flight
// (a lost retransmission costs RTOMin plus one doubling, so the hold
// timeout must out-wait that — and flushing the whole buffer would turn
// one unlucky packet into a burst of application-visible gaps).
func (fs *flowState) onHoldTimeout() {
	if len(fs.held) == 0 {
		return
	}
	oldest := uint32(0)
	for s := range fs.held {
		if oldest == 0 || s < oldest {
			oldest = s
		}
	}
	fs.stats.HoldFlushes++
	fs.stats.Gaps += int64(oldest - fs.cumSeq - 1)
	fs.cumSeq = oldest - 1
	fs.drainHeld() // re-arms the hold timer if holes remain
}

// flushHeld gives up on outstanding holes: everything held is delivered in
// sequence order and the skipped numbers become gaps.
func (fs *flowState) flushHeld() {
	if len(fs.held) == 0 {
		return
	}
	fs.stats.HoldFlushes++
	seqs := make([]uint32, 0, len(fs.held))
	for s := range fs.held {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		m := fs.held[s]
		delete(fs.held, s)
		if s > fs.cumSeq+1 {
			fs.stats.Gaps += int64(s - fs.cumSeq - 1)
		}
		fs.cumSeq = s
		fs.stats.Delivered++
		_ = fs.bwdIface.DeliverNext(m) // on error the upper stage freed m
	}
	fs.holdTimer.Cancel()
}

// markDelivered records an arrival-order delivery and advances the
// cumulative watermark past contiguously delivered seqs, pruning the recent
// set to the configured window.
func (fs *flowState) markDelivered(seq uint32) {
	fs.recent[seq] = true
	for fs.recent[fs.cumSeq+1] {
		delete(fs.recent, fs.cumSeq+1)
		fs.cumSeq++
	}
	if w := fs.impl.RecentWindow; fs.maxSeq > w && fs.cumSeq < fs.maxSeq-w {
		// Bound the dedup memory: anything at or below the new watermark
		// is treated as old from now on.
		floor := fs.maxSeq - w
		for s := fs.cumSeq + 1; s <= floor; s++ {
			delete(fs.recent, s)
		}
		fs.cumSeq = floor
	}
}

// ackMaybe counts a data arrival and sends a window advertisement every
// AckEvery arrivals.
func (fs *flowState) ackMaybe(i *core.NetIface) {
	f := fs.impl
	fs.sinceAck++
	if f.AckEvery > 0 && fs.sinceAck >= f.AckEvery {
		fs.sinceAck = 0
		fs.sendAck(i)
	}
}

// sendAck turns a window advertisement around onto the path's opposite
// direction (§2.4.1's turn-around is exactly this).
func (fs *flowState) sendAck(i *core.NetIface) {
	win := fs.maxSeq
	if len(fs.arrivals) > 1 {
		// Multipath: maxSeq runs ahead of the cumulative watermark by the
		// whole cross-path reorder span, so maxSeq-relative credit would let
		// the sender bury the slowest subpath arbitrarily deep (the hold
		// buffer absorbs the spread, the queues stay empty, and the window
		// never closes). Credit a striping flow from what was actually
		// delivered instead. Single-path keeps the historical rule, where
		// maxSeq only outruns cumSeq across genuine losses.
		win = fs.cumSeq
	}
	if fs.inQ != nil {
		free := fs.inQ.Free()
		for _, a := range fs.arrivals {
			if a.inQ != nil && a.inQ.Free() < free {
				free = a.inQ.Free()
			}
		}
		win += uint32(free)
	}
	// Backpressure cap (§4.4 degradation): a degraded receiver narrows the
	// advertised window so the source slows instead of filling queues with
	// packets the path will only shed. The cap bounds in-flight data
	// relative to the highest seq that actually reached this stage
	// (early-discarded packets never do, so a cumSeq-relative cap would
	// deadlock behind shed sequence holes).
	if fs.winCap > 0 {
		if capped := fs.maxSeq + fs.winCap; capped < win {
			win = capped
		}
	}
	ack, err := fs.impl.ackPool.Get(HeaderLen)
	if err != nil { // unlimited pool: only reachable if a limit is set later
		ack = msg.NewWithHeadroom(64, HeaderLen)
	}
	Header{Kind: KindAck, Seq: fs.cumSeq, Win: win, TS: fs.lastTS}.Put(ack.Bytes())
	fs.stats.AcksSent++
	if err := i.DeliverBack(ack); err != nil {
		ack.Free()
	}
}

// Readvertise sends one unsolicited window advertisement down p's chain
// through its stage contributed by the named router. It is the control-plane
// nudge the migration subsystem (internal/splice) fires right after a
// resplice: the ack travels the freshly built lower stages, so the sender
// learns the receiver is reachable on the new device without waiting for
// data to arrive and trigger a normal turn-around ack. Reports whether an
// advertisement was sent.
func (f *Impl) Readvertise(p *core.Path, router string) bool {
	if p == nil || p.Dead() {
		return false
	}
	s := p.StageOf(router)
	if s == nil {
		return false
	}
	fs, ok := s.Data.(*flowState)
	if !ok {
		return false
	}
	i, ok := s.End[core.BWD].(*core.NetIface)
	if !ok || i == nil {
		return false
	}
	fs.sendAck(i)
	return true
}

// senderAck processes a cumulative acknowledgment on the sending side.
func (fs *flowState) senderAck(h Header) {
	fs.stats.AcksSeen++
	if h.Win > fs.sendWin {
		fs.sendWin = h.Win
	}
	fs.snd.Ack(h.Seq, h.TS)
}

// retransmit re-sends one buffered packet down the path.
func (fs *flowState) retransmit(_ uint32, data *[]byte) {
	m := msg.NewWithHeadroom(64, len(*data))
	copy(m.Bytes(), *data)
	if fs.fwdIface.Path() != nil {
		fs.fwdIface.Path().ChargeExec(fs.impl.PerPacketCost)
	}
	if err := fs.fwdIface.DeliverNext(m); err != nil {
		m.Free()
	}
}

// StatsOf returns the MFLOW statistics of path p, if it has an MFLOW stage
// owned by the named router.
func StatsOf(p *core.Path, routerName string) (Stats, bool) {
	s := p.StageOf(routerName)
	if s == nil {
		return Stats{}, false
	}
	fs, ok := s.Data.(*flowState)
	if !ok {
		return Stats{}, false
	}
	return fs.stats, true
}

// NoteShed informs the path's MFLOW stage that the data packet carrying seq
// was consumed by an early-discard filter at interrupt time, before protocol
// processing. The sequence number must still count as seen: the advertised
// window is relative to the highest arrived seq, so a run of shed packets
// would otherwise freeze the advertisement and throttle the source long
// after the shed decision saved the CPU it was meant to save. Flow-control
// accounting is the cheap part of receive processing (ALF shed saves the
// decode, not the header bookkeeping), so the stage charges its per-packet
// cost and acknowledges on the usual cadence.
func NoteShed(p *core.Path, routerName string, seq uint32) bool {
	s := p.StageOf(routerName)
	if s == nil {
		return false
	}
	fs, ok := s.Data.(*flowState)
	if !ok {
		return false
	}
	p.ChargeExec(fs.impl.PerPacketCost)
	if !fs.started {
		fs.started = true
		if seq > fs.impl.RecentWindow {
			fs.cumSeq = seq - 1
		}
		fs.maxSeq = fs.cumSeq
	}
	if seq > fs.maxSeq {
		fs.maxSeq = seq
	}
	if fs.recent != nil {
		fs.markDelivered(seq)
	} else if seq == fs.cumSeq+1 {
		fs.cumSeq++
		fs.drainHeld()
	}
	fs.ackMaybe(fs.bwdIface)
	return true
}

// SetWindowCap caps the receive window the path's MFLOW stage advertises to
// cumSeq+cap (0 removes the cap). A backpressure-capable source
// (host.SourceConfig.Backpressure) honours shrinking advertisements, so a
// degraded path throttles its sender at the origin instead of dropping the
// excess after it has crossed the link.
func SetWindowCap(p *core.Path, routerName string, winCap uint32) bool {
	s := p.StageOf(routerName)
	if s == nil {
		return false
	}
	fs, ok := s.Data.(*flowState)
	if !ok {
		return false
	}
	fs.winCap = winCap
	return true
}

// SetObserver installs (or, with nil, removes) the flow's arrival observer:
// fn sees every data packet with the subpath index it arrived on, the
// sender→receiver one-way latency measured on the shared virtual clock, and
// the arrival path's device-end queue depth. Installed on any path of the
// flow, it observes arrivals on all of them — joined subpaths share the
// flow state. This is the quality feed mpath.PathSet's EWMAs are built on.
func SetObserver(p *core.Path, routerName string, fn func(sub int, oneWay time.Duration, qdepth int)) bool {
	s := p.StageOf(routerName)
	if s == nil {
		return false
	}
	fs, ok := s.Data.(*flowState)
	if !ok {
		return false
	}
	fs.observer = fn
	return true
}
