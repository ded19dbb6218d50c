// Package arp implements the ARP router of Figure 6: it resolves IP
// addresses to Ethernet addresses for IP, and it listens to ARP traffic
// through a "short/fat" path of its own (ARP→ETH), the paper's recommended
// pattern for exceptional traffic (§2.5).
//
// A multi-homed appliance connects ARP's "down" service to several parallel
// ETH routers; resolution state (cache, pending requests, listen path) is
// kept per link, because the same IP address legitimately maps to different
// hardware on different segments and a request broadcast on one wire must
// not satisfy a resolution waiting on another.
package arp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/sched"
	"scout/internal/sim"
)

// NSIfaceType is the name-service interface type ("nsProvider"/"nsClient"
// in Figure 6); the resolver service is symmetric in this reproduction.
var NSIfaceType = core.NewIfaceType("ns", nil)

// NSServiceType types the resolver service.
var NSServiceType = &core.ServiceType{Name: "ns", Provides: NSIfaceType, Requires: NSIfaceType}

// packetLen is the size of an ARP packet for Ethernet/IPv4.
const packetLen = 28

const (
	opRequest = 1
	opReply   = 2
)

type packet struct {
	Op       uint16
	SenderHW netdev.MAC
	SenderIP inet.Addr
	TargetHW netdev.MAC
	TargetIP inet.Addr
}

func (p packet) put(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], 1)      // htype: Ethernet
	binary.BigEndian.PutUint16(b[2:4], 0x0800) // ptype: IPv4
	b[4], b[5] = 6, 4
	binary.BigEndian.PutUint16(b[6:8], p.Op)
	copy(b[8:14], p.SenderHW[:])
	copy(b[14:18], p.SenderIP[:])
	copy(b[18:24], p.TargetHW[:])
	copy(b[24:28], p.TargetIP[:])
}

func parse(b []byte) (packet, error) {
	if len(b) < packetLen {
		return packet{}, errors.New("arp: short packet")
	}
	var p packet
	p.Op = binary.BigEndian.Uint16(b[6:8])
	copy(p.SenderHW[:], b[8:14])
	copy(p.SenderIP[:], b[14:18])
	copy(p.TargetHW[:], b[18:24])
	copy(p.TargetIP[:], b[24:28])
	return p, nil
}

// Impl is the ARP router implementation.
type Impl struct {
	addr inet.Addr
	cpu  *sched.Sched

	// Priority is the RR priority of the ARP path's thread.
	Priority int
	// PerPacketCost is the CPU charged per processed ARP packet.
	PerPacketCost time.Duration
	// RequestTimeout and Retries bound resolution attempts.
	RequestTimeout time.Duration
	Retries        int

	router *core.Router
	links  []*arpLink

	replies, requests int64
}

// arpLink is the per-link resolution state: one ETH below, one listen path,
// and a cache/pending table scoped to that wire.
type arpLink struct {
	idx     int
	eth     *eth.Impl
	path    *core.Path
	thread  *sched.Thread
	cache   map[inet.Addr]netdev.MAC
	pending map[inet.Addr]*resolution
}

type resolution struct {
	callbacks []func(netdev.MAC, bool)
	tries     int
	timeout   time.Duration // doubles per retry, starting at RequestTimeout
	timer     sim.Event     // the retry timer, owner-held
}

// New returns an ARP router for a host with address addr, scheduling its
// path thread(s) on cpu.
func New(addr inet.Addr, cpu *sched.Sched) *Impl {
	return &Impl{
		addr:           addr,
		cpu:            cpu,
		Priority:       1,
		PerPacketCost:  2 * time.Microsecond,
		RequestTimeout: time.Second,
		Retries:        3,
	}
}

// Services declares the resolver service (used by IP) and the down link to
// ETH; ETH must be initialized first. "down" may be connected to several
// parallel ETH routers on a multi-homed appliance.
func (a *Impl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{
		{Name: "resolver", Type: NSServiceType},
		{Name: "down", Type: core.NetServiceType, InitAfterPeers: true},
	}
}

// Init binds the ARP ether type on every down ETH and creates one short/fat
// ARP listen path per link.
func (a *Impl) Init(r *core.Router) error {
	a.router = r
	downs := r.LinksOf("down")
	if len(downs) == 0 {
		return errors.New("arp: no down link")
	}
	for i, l := range downs {
		ei, ok := l.Peer.Impl.(*eth.Impl)
		if !ok {
			return fmt.Errorf("arp: down peer %s is not an ETH router", l.Peer.Name)
		}
		a.links = append(a.links, &arpLink{
			idx:     i,
			eth:     ei,
			cache:   make(map[inet.Addr]netdev.MAC),
			pending: make(map[inet.Addr]*resolution),
		})
	}
	for _, al := range a.links {
		al := al
		err := al.eth.BindType(inet.EtherTypeARP, func(m *msg.Msg) (*core.Path, error) {
			if al.path == nil {
				return nil, core.ErrNoPath
			}
			return al.path, nil
		})
		if err != nil {
			return err
		}
		// The initial path: boot-time routers create a handful of paths to
		// receive network packets (§3.3).
		p, err := r.Graph.CreatePath(r, attr.New().
			Set(attr.ProtID, inet.EtherTypeARP).
			Set(attr.MPathLink, al.idx))
		if err != nil {
			return fmt.Errorf("arp: creating listen path: %w", err)
		}
		al.path = p
		al.thread = sched.ServeIncoming(a.cpu, fmt.Sprintf("arp%d", al.idx), sched.PolicyRR, a.Priority, p, core.BWD)
	}
	return nil
}

// CreateStage contributes the ARP stage of a listen path; PA_MPATH_LINK
// selects which down link the path descends to.
func (a *Impl) CreateStage(r *core.Router, enter int, at *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	if enter != core.NoService {
		return nil, nil, errors.New("arp: paths may only start at ARP")
	}
	downs := r.LinksOf("down")
	idx := at.IntDefault(attr.MPathLink, 0)
	if idx < 0 || idx >= len(downs) {
		return nil, nil, fmt.Errorf("arp: link %d out of range (%d down links)", idx, len(downs))
	}
	s := &core.Stage{}
	// Inbound: process the ARP packet; this is the end of the path.
	s.SetIface(core.BWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		i.Path().ChargeExec(a.PerPacketCost)
		a.process(idx, m)
		return nil
	}))
	// Outbound: nothing to add; ETH builds the frame from the message's
	// link destination.
	s.SetIface(core.FWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return i.DeliverNext(m)
	}))
	l := downs[idx]
	return s, &core.NextHop{Router: l.Peer, Service: l.PeerService}, nil
}

// process handles one inbound ARP packet (thread context) that arrived on
// down link idx.
func (a *Impl) process(idx int, m *msg.Msg) {
	defer m.Free()
	al := a.links[idx]
	p, err := parse(m.Bytes())
	if err != nil {
		return
	}
	switch p.Op {
	case opRequest:
		// Opportunistically learn the sender, then answer if it asks
		// for us.
		a.learn(al, p.SenderIP, p.SenderHW)
		if p.TargetIP != a.addr {
			return
		}
		a.replies++
		reply := packet{
			Op:       opReply,
			SenderHW: al.eth.MAC(),
			SenderIP: a.addr,
			TargetHW: p.SenderHW,
			TargetIP: p.SenderIP,
		}
		a.send(al, reply, p.SenderHW)
	case opReply:
		a.learn(al, p.SenderIP, p.SenderHW)
	}
}

func (a *Impl) learn(al *arpLink, ip inet.Addr, mac netdev.MAC) {
	al.cache[ip] = mac
	// A resolution update is a control-plane change: conservatively drop
	// cached flow classifications so no path keeps receiving traffic on the
	// strength of a mapping that just changed (§fast path invalidation).
	a.router.Graph.InvalidateFlows()
	if res, ok := al.pending[ip]; ok {
		delete(al.pending, ip)
		res.timer.Cancel()
		for _, cb := range res.callbacks {
			cb(mac, true)
		}
	}
}

func (a *Impl) send(al *arpLink, p packet, dst netdev.MAC) {
	out := msg.NewWithHeadroom(eth.HeaderLen, packetLen)
	p.put(out.Bytes())
	out.SetLinkDst([6]byte(dst))
	if err := al.path.Inject(core.FWD, out); err != nil {
		out.Free()
	}
	al.path.TakeExecCost() // FWD cost folded into the caller's execution
}

// Lookup consults the first link's cache without sending anything; the
// single-homed convenience form of LookupOn.
func (a *Impl) Lookup(ip inet.Addr) (netdev.MAC, bool) { return a.LookupOn(0, ip) }

// LookupOn consults link idx's cache without sending anything.
func (a *Impl) LookupOn(idx int, ip inet.Addr) (netdev.MAC, bool) {
	if idx < 0 || idx >= len(a.links) {
		return netdev.MAC{}, false
	}
	mac, ok := a.links[idx].cache[ip]
	return mac, ok
}

// Resolve maps ip to a MAC over the first down link; the single-homed
// convenience form of ResolveOn.
func (a *Impl) Resolve(ip inet.Addr, cb func(mac netdev.MAC, ok bool)) {
	a.ResolveOn(0, ip, cb)
}

// ResolveOn maps ip to a MAC over down link idx, invoking cb when the answer
// (or a timeout) arrives. The callback runs immediately when that link's
// cache already knows.
func (a *Impl) ResolveOn(idx int, ip inet.Addr, cb func(mac netdev.MAC, ok bool)) {
	if idx < 0 || idx >= len(a.links) {
		cb(netdev.MAC{}, false)
		return
	}
	al := a.links[idx]
	if mac, ok := al.cache[ip]; ok {
		cb(mac, true)
		return
	}
	res, inflight := al.pending[ip]
	if !inflight {
		res = &resolution{timeout: a.RequestTimeout}
		al.pending[ip] = res
	}
	res.callbacks = append(res.callbacks, cb)
	if !inflight {
		a.transmitRequest(al, ip, res)
	}
}

func (a *Impl) transmitRequest(al *arpLink, ip inet.Addr, res *resolution) {
	res.tries++
	a.requests++
	req := packet{
		Op:       opRequest,
		SenderHW: al.eth.MAC(),
		SenderIP: a.addr,
		TargetIP: ip,
	}
	a.send(al, req, netdev.Broadcast)
	timeout := res.timeout
	res.timeout *= 2 // exponential backoff: don't flood a silent subnet
	eng := a.cpu.Engine()
	eng.Rearm(&res.timer, eng.Now().Add(timeout), func() {
		if al.pending[ip] != res {
			return // resolved meanwhile
		}
		if res.tries >= a.Retries {
			delete(al.pending, ip)
			for _, cb := range res.callbacks {
				cb(netdev.MAC{}, false)
			}
			return
		}
		a.transmitRequest(al, ip, res)
	})
}

// Stats reports (requests sent, replies sent) across all links.
func (a *Impl) Stats() (requests, replies int64) { return a.requests, a.replies }
