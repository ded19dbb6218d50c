// Package ip implements the IP router: header processing, routing by local
// knowledge (same-subnet test, §2.2), ARP-driven next-hop resolution whose
// result is shared with the ETH stage through a path attribute, sender-side
// fragmentation, and a short/fat reassembly path that catches "all
// fragmented IP packets" (§2.5) and re-runs the classifier once a datagram
// is whole (§3.5).
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/arp"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/sched"
)

// HeaderLen is the length of an IP header without options.
const HeaderLen = 20

const (
	flagMF     = 0x2000 // more fragments
	fragOffMax = 0x1fff
)

// Header is an IPv4 header (no options).
type Header struct {
	TotalLen uint16
	ID       uint16
	MF       bool
	FragOff  int // in bytes (multiple of 8)
	TTL      uint8
	Proto    uint8
	Src, Dst inet.Addr
}

// Put writes the header (with checksum) into b[:HeaderLen].
func (h Header) Put(b []byte) {
	b[0] = 0x45
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	ff := uint16(h.FragOff / 8)
	if h.MF {
		ff |= flagMF
	}
	binary.BigEndian.PutUint16(b[6:8], ff)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	ck := inet.Checksum(b[:HeaderLen])
	binary.BigEndian.PutUint16(b[10:12], ck)
}

// Parse reads and validates a header from the front of b.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, errors.New("ip: short header")
	}
	if b[0] != 0x45 {
		return Header{}, fmt.Errorf("ip: unsupported version/ihl %#02x", b[0])
	}
	if inet.Checksum(b[:HeaderLen]) != 0 {
		return Header{}, errors.New("ip: bad header checksum")
	}
	var h Header
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.MF = ff&flagMF != 0
	h.FragOff = int(ff&fragOffMax) * 8
	h.TTL = b[8]
	h.Proto = b[9]
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return h, nil
}

// Fragmented reports whether the header describes a fragment.
func (h Header) Fragmented() bool { return h.MF || h.FragOff > 0 }

// Config describes the host's IP identity.
type Config struct {
	Addr    inet.Addr
	Mask    inet.Addr
	Gateway inet.Addr // zero = no gateway: off-subnet paths cannot form
}

// Stats counts IP behaviour.
type Stats struct {
	Sent          int64
	FragmentsSent int64
	Received      int64
	BadHeader     int64
	NotMine       int64
	Reassembled   int64
	ReasmTimeouts int64
	// ReasmDupDrops counts exact-duplicate fragments discarded during
	// reassembly (retransmitted or link-duplicated copies).
	ReasmDupDrops int64
	// ReasmOverflows counts partial datagrams evicted for exceeding the
	// per-entry piece or byte caps.
	ReasmOverflows int64
}

// Impl is the IP router implementation.
type Impl struct {
	cfg Config
	cpu *sched.Sched

	// PerPacketCost is the CPU charged per IP header processed.
	PerPacketCost time.Duration
	// ReasmPriority is the RR priority of the reassembly path's thread.
	ReasmPriority int
	// ReasmTimeout bounds how long partial datagrams are held.
	ReasmTimeout time.Duration
	// ReasmMaxPieces and ReasmMaxBytes cap one partial datagram's buffered
	// fragments; an entry that exceeds either is evicted (a duplicated or
	// corrupted fragment stream must not pin unbounded memory).
	ReasmMaxPieces int
	ReasmMaxBytes  int
	// PendingLimit bounds packets buffered while ARP resolves.
	PendingLimit int

	router    *core.Router
	ethImpl   *eth.Impl   // first down link; reassembly redelivers through it
	eths      []*eth.Impl // all down links, connection order (parallel NICs)
	arpImpl   *arp.Impl
	byProto   map[uint8]func(m *msg.Msg) (*core.Path, error)
	reasmPath *core.Path
	reasmThr  *sched.Thread
	reasm     map[reasmKey]*reasmEntry
	nextID    uint16
	stats     Stats
}

// New returns an IP router with the given host configuration.
func New(cfg Config, cpu *sched.Sched) *Impl {
	return &Impl{
		cfg:            cfg,
		cpu:            cpu,
		PerPacketCost:  2 * time.Microsecond,
		ReasmPriority:  2,
		ReasmTimeout:   30 * time.Second,
		ReasmMaxPieces: 64,
		ReasmMaxBytes:  256 << 10,
		PendingLimit:   8,
		byProto:        make(map[uint8]func(*msg.Msg) (*core.Path, error)),
		reasm:          make(map[reasmKey]*reasmEntry),
	}
}

// Addr returns the host address.
func (p *Impl) Addr() inet.Addr { return p.cfg.Addr }

// Services declares up (transports), down (ETH, init first) and res (ARP,
// init first) — the service structure of Figure 6.
func (p *Impl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{
		{Name: "up", Type: core.NetServiceType},
		{Name: "down", Type: core.NetServiceType, InitAfterPeers: true},
		{Name: "res", Type: arp.NSServiceType, InitAfterPeers: true},
	}
}

// Init wires IP into every down ETH and into ARP, and creates the
// reassembly path. A multi-homed appliance connects "down" to several
// parallel ETH routers; the classifier is bound on each, so an IP datagram
// is demuxed identically whichever NIC it arrives on.
func (p *Impl) Init(r *core.Router) error {
	p.router = r
	downs := r.LinksOf("down")
	if len(downs) == 0 {
		return errors.New("ip: no down link")
	}
	for _, down := range downs {
		ei, ok := down.Peer.Impl.(*eth.Impl)
		if !ok {
			return fmt.Errorf("ip: down peer %s is not ETH", down.Peer.Name)
		}
		p.eths = append(p.eths, ei)
	}
	p.ethImpl = p.eths[0]
	res, err := r.Link("res")
	if err != nil {
		return err
	}
	ai, ok := res.Peer.Impl.(*arp.Impl)
	if !ok {
		return fmt.Errorf("ip: res peer %s is not ARP", res.Peer.Name)
	}
	p.arpImpl = ai

	for _, ei := range p.eths {
		if err := ei.BindType(inet.EtherTypeIP, p.classify); err != nil {
			return err
		}
	}

	// Short/fat path for all fragmented IP packets (§2.5).
	rp, err := r.Graph.CreatePath(r, attr.New().
		Set(attr.PathName, "IP-REASM").
		Set(attr.ProtID, inet.EtherTypeIP))
	if err != nil {
		return fmt.Errorf("ip: creating reassembly path: %w", err)
	}
	p.reasmPath = rp
	p.reasmThr = sched.ServeIncoming(p.cpu, "ip-reasm", sched.PolicyRR, p.ReasmPriority, rp, core.BWD)
	return nil
}

// BindProto registers the classifier continuation for an IP protocol
// number; transports call it from Init. The continuation sees the packet
// with the IP header stripped.
func (p *Impl) BindProto(proto uint8, demux func(m *msg.Msg) (*core.Path, error)) error {
	if _, dup := p.byProto[proto]; dup {
		return fmt.Errorf("ip: proto %d bound twice", proto)
	}
	p.byProto[proto] = demux
	return nil
}

// classify refines the classification decision for an IP packet (header at
// the front of m).
func (p *Impl) classify(m *msg.Msg) (*core.Path, error) {
	raw, err := m.Peek(HeaderLen)
	if err != nil {
		return nil, core.ErrNoPath
	}
	h, err := Parse(raw)
	if err != nil {
		return nil, core.ErrNoPath
	}
	if h.Dst != p.cfg.Addr {
		return nil, core.ErrNoPath
	}
	if h.Fragmented() {
		// Relaxed, best-effort accuracy (§3.5): hand fragments to a
		// path that knows how to reassemble them.
		return p.reasmPath, nil
	}
	next, ok := p.byProto[h.Proto]
	if !ok {
		return nil, core.ErrNoPath
	}
	if _, err := m.Pop(HeaderLen); err != nil {
		return nil, core.ErrNoPath
	}
	path, err := next(m)
	m.Push(HeaderLen)
	return path, err
}

// Stats returns a snapshot of counters.
func (p *Impl) Stats() Stats { return p.stats }

// ipStage is the per-path state of an IP stage.
type ipStage struct {
	impl        *Impl
	proto       uint8
	linkIdx     int // which parallel down link the path descends to
	remote      inet.Addr
	nextHop     inet.Addr
	resolved    bool
	resolvedMAC netdev.MAC
	failed      bool
	pending     []*msg.Msg
	fwd         *core.NetIface
}

// route applies IP's local knowledge: on-subnet destinations are reached
// directly, others via the gateway. The zero address means "no route".
func (p *Impl) route(dst inet.Addr) inet.Addr {
	if inet.SameSubnet(dst, p.cfg.Addr, p.cfg.Mask) {
		return dst
	}
	return p.cfg.Gateway
}

// CreateStage contributes the IP stage. Local knowledge decides the next
// hop: on-subnet hosts are reached directly, everything else through the
// gateway; with neither, the invariants are too weak and path creation ends
// at IP (§2.2's degenerate case).
func (p *Impl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	if name, _ := a.String(attr.PathName); name == "IP-REASM" {
		return p.createReasmStage(r, a)
	}
	sd := &ipStage{impl: p}
	if v, ok := a.Int(attr.ProtID); ok {
		sd.proto = uint8(v)
	}
	downs := r.LinksOf("down")
	sd.linkIdx = a.IntDefault(attr.MPathLink, 0)
	if sd.linkIdx < 0 || sd.linkIdx >= len(downs) {
		return nil, nil, fmt.Errorf("ip: link %d out of range (%d down links)", sd.linkIdx, len(downs))
	}
	if v, ok := a.Get(attr.NetParticipants); ok {
		part, ok := v.(inet.Participants)
		if !ok {
			return nil, nil, errors.New("ip: PA_NET_PARTICIPANTS is not inet.Participants")
		}
		sd.remote = part.RemoteAddr
		switch {
		case inet.SameSubnet(part.RemoteAddr, p.cfg.Addr, p.cfg.Mask):
			sd.nextHop = part.RemoteAddr
		case p.cfg.Gateway != (inet.Addr{}):
			sd.nextHop = p.cfg.Gateway
		}
	}

	s := &core.Stage{Data: sd}
	sd.fwd = core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return sd.output(i, m)
	})
	s.SetIface(core.FWD, sd.fwd)
	in := core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return sd.input(i, m)
	})
	s.SetIface(core.BWD, in)
	// Fusion contract: see inputFused.
	s.Fuse = func(st *core.Stage) {
		in.Deliver = func(i *core.NetIface, m *msg.Msg) error {
			return sd.inputFused(i, m)
		}
	}

	s.Establish = func(s *core.Stage, a *attr.Attrs) error {
		if sd.nextHop == (inet.Addr{}) {
			return nil // receive-only or degenerate path
		}
		p.arpImpl.ResolveOn(sd.linkIdx, sd.nextHop, func(mac netdev.MAC, ok bool) {
			if !ok {
				sd.failed = true
				for _, q := range sd.pending {
					q.Free()
				}
				sd.pending = nil
				return
			}
			sd.resolved = true
			sd.resolvedMAC = mac
			if s.Path != nil {
				// Share the answer anonymously with the ETH stage
				// through the path attributes (§3.2).
				s.Path.Attrs.Set(inet.AttrEthDst, mac)
			}
			queued := sd.pending
			sd.pending = nil
			for _, q := range queued {
				if err := sd.fwd.Deliver(sd.fwd, q); err != nil {
					q.Free()
				}
			}
		})
		return nil
	}
	s.Destroy = func(*core.Stage) {
		for _, q := range sd.pending {
			q.Free()
		}
		sd.pending = nil
	}

	// The next-higher protocol id for ETH is IP's ether type (§4.1).
	a.Set(attr.ProtID, inet.EtherTypeIP)
	if sd.nextHop == (inet.Addr{}) && enter == core.NoService {
		// No routing decision possible: path ends here.
		return s, nil, nil
	}
	down := downs[sd.linkIdx]
	return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

// output sends one datagram, fragmenting when the payload exceeds what fits
// in an MTU-sized frame. Narrow paths (fixed remote) use the stage-level ARP
// resolution done at establish; wide paths (ICMP, SHELL replies) carry a
// per-packet destination in m.Tag and resolve per packet.
func (sd *ipStage) output(i *core.NetIface, m *msg.Msg) error {
	p := sd.impl
	path := i.Path()
	path.ChargeExec(p.PerPacketCost)

	dst := sd.remote
	if a, _, ok := m.NetDst(); ok {
		dst = inet.Addr(a)
	} else if a, ok := m.Tag.(inet.Addr); ok {
		dst = a
	}
	if dst == (inet.Addr{}) {
		m.Free()
		return errors.New("ip: no destination for outbound datagram")
	}

	var mac netdev.MAC
	switch {
	case dst == sd.remote && sd.resolved:
		mac = sd.resolvedMAC
	case dst == sd.remote && sd.failed:
		m.Free()
		return errors.New("ip: next hop unresolvable")
	case dst == sd.remote:
		// Path-level resolution still in flight: hold the packet.
		if len(sd.pending) >= p.PendingLimit {
			m.Free()
			return errors.New("ip: ARP pending queue full")
		}
		sd.pending = append(sd.pending, m)
		return nil
	default:
		nh := p.route(dst)
		if nh == (inet.Addr{}) {
			m.Free()
			return errors.New("ip: no route to " + dst.String())
		}
		cached, ok := p.arpImpl.LookupOn(sd.linkIdx, nh)
		if !ok {
			// Resolve asynchronously and re-deliver when answered.
			keep := m
			p.arpImpl.ResolveOn(sd.linkIdx, nh, func(found netdev.MAC, ok bool) {
				if !ok {
					keep.Free()
					return
				}
				keep.SetNetDst([4]byte(dst), 0) // re-delivery takes the per-packet branch again
				if err := sd.fwd.Deliver(sd.fwd, keep); err != nil {
					// Deliver frees on error paths.
					_ = err
				}
				path.TakeExecCost() // folded into resolver context
			})
			return nil
		}
		mac = cached
	}

	return sd.transmit(i, m, dst, mac)
}

// transmit stamps the frame destination, builds the header(s) and hands the
// datagram (or its fragments) to ETH.
func (sd *ipStage) transmit(i *core.NetIface, m *msg.Msg, dst inet.Addr, mac netdev.MAC) error {
	p := sd.impl
	path := i.Path()
	p.nextID++
	id := p.nextID
	maxPayload := (netdev.MTU - HeaderLen) &^ 7
	if m.Len() <= netdev.MTU-HeaderLen {
		h := Header{TotalLen: uint16(HeaderLen + m.Len()), ID: id, TTL: 64, Proto: sd.proto, Src: p.cfg.Addr, Dst: dst}
		h.Put(m.Push(HeaderLen))
		m.SetLinkDst([6]byte(mac))
		p.stats.Sent++
		return i.DeliverNext(m)
	}
	// Fragment: each fragment gets its own buffer (pushing headers onto
	// slices of a shared buffer would overwrite the neighbouring
	// fragment's payload). Fragmentation is the exceptional path, so the
	// copies — which the msg layer counts — are acceptable.
	payload := m.Bytes()
	off := 0
	var firstErr error
	for off < len(payload) {
		n := maxPayload
		mf := true
		if len(payload)-off <= n {
			n = len(payload) - off
			mf = false
		}
		frag := msg.NewWithHeadroom(eth.HeaderLen+HeaderLen, n)
		if err := frag.CopyIn(payload[off : off+n]); err != nil {
			m.Free()
			return err
		}
		h := Header{TotalLen: uint16(HeaderLen + n), ID: id, MF: mf, FragOff: off, TTL: 64, Proto: sd.proto, Src: p.cfg.Addr, Dst: dst}
		h.Put(frag.Push(HeaderLen))
		frag.SetLinkDst([6]byte(mac))
		p.stats.Sent++
		p.stats.FragmentsSent++
		path.ChargeExec(p.PerPacketCost) // each fragment costs header work
		if err := i.DeliverNext(frag); err != nil && firstErr == nil {
			firstErr = err
		}
		off += n
	}
	m.Free()
	return firstErr
}

// input validates one inbound datagram and passes the payload up.
func (sd *ipStage) input(i *core.NetIface, m *msg.Msg) error {
	p := sd.impl
	i.Path().ChargeExec(p.PerPacketCost)
	raw, err := m.Pop(HeaderLen)
	if err != nil {
		p.stats.BadHeader++
		m.Free()
		return err
	}
	h, err := Parse(raw)
	if err != nil {
		p.stats.BadHeader++
		m.Free()
		return err
	}
	if h.Dst != p.cfg.Addr {
		p.stats.NotMine++
		m.Free()
		return errors.New("ip: not addressed to this host")
	}
	// Trim link-layer padding.
	if payload := int(h.TotalLen) - HeaderLen; payload < m.Len() {
		if err := m.Truncate(payload); err != nil {
			m.Free()
			return err
		}
	}
	p.stats.Received++
	// Make the datagram's source available to stages above (wildcard UDP
	// ports and SHELL need it to identify the requester) without boxing it
	// into the Tag interface, which would heap-allocate per packet.
	m.SetNetSrc([4]byte(h.Src), 0)
	return i.DeliverNext(m)
}

// inputFused is the fused variant of input. Every datagram a device delivers
// to this stage already passed the classifier — the full walk (Parse: version,
// IHL, header checksum; destination equality; fragment test) or the flow-cache
// extractor, which re-checks the same invariants flatly — so re-validating
// here is provably redundant. The fused input re-reads only what it consumes:
// the total length for the padding trim and the source address for stages
// above. Costs, counters, delivered bytes and error behaviour are identical
// for every frame the classifier can deliver.
func (sd *ipStage) inputFused(i *core.NetIface, m *msg.Msg) error {
	p := sd.impl
	i.Path().ChargeExec(p.PerPacketCost)
	raw, err := m.Pop(HeaderLen)
	if err != nil {
		p.stats.BadHeader++
		m.Free()
		return err
	}
	if payload := int(binary.BigEndian.Uint16(raw[2:4])) - HeaderLen; payload < m.Len() {
		if err := m.Truncate(payload); err != nil {
			m.Free()
			return err
		}
	}
	p.stats.Received++
	m.SetNetSrc([4]byte(raw[12:16]), 0)
	return i.DeliverNext(m)
}
