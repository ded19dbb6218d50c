// Package icmp implements the ICMP router. Like ARP, it owns a short/fat
// path (ICMP→IP→ETH) created at boot; in Table 2's experiment this path runs
// at the priority level below the video path, so a `ping -f` flood cannot
// steal the CPU from realtime work — the packets are separated into the
// ICMP path's own input queue at interrupt time and serviced only when the
// CPU has nothing more urgent to do (§4.3).
package icmp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/sched"
)

// HeaderLen is the length of an ICMP echo header.
const HeaderLen = 8

// ICMP message types.
const (
	TypeEchoReply   = 0
	TypeEchoRequest = 8
)

// Echo is an ICMP echo message header.
type Echo struct {
	Type, Code uint8
	ID, Seq    uint16
}

// Put writes the header (checksum over hdr+payload) into b[:HeaderLen].
func (e Echo) Put(b, payload []byte) {
	b[0], b[1] = e.Type, e.Code
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:6], e.ID)
	binary.BigEndian.PutUint16(b[6:8], e.Seq)
	// The header is an even number of bytes, so the two sums compose as they are.
	ck := ^inet.Fold(inet.Sum(inet.Sum(0, b[:HeaderLen]), payload))
	binary.BigEndian.PutUint16(b[2:4], ck)
}

// Parse reads an echo header from the front of b.
func Parse(b []byte) (Echo, error) {
	if len(b) < HeaderLen {
		return Echo{}, errors.New("icmp: short message")
	}
	return Echo{
		Type: b[0], Code: b[1],
		ID:  binary.BigEndian.Uint16(b[4:6]),
		Seq: binary.BigEndian.Uint16(b[6:8]),
	}, nil
}

// Impl is the ICMP router implementation.
type Impl struct {
	cpu *sched.Sched

	// Priority is the RR priority of the ICMP path thread — one level
	// below the video path's in the Table 2 configuration.
	Priority int
	// PerPacketCost is the CPU charged per echo processed (reply
	// construction included).
	PerPacketCost time.Duration

	router *core.Router
	path   *core.Path
	thread *sched.Thread

	requests, replies int64
}

// New returns an ICMP router scheduling its path thread on cpu.
func New(cpu *sched.Sched) *Impl {
	return &Impl{cpu: cpu, Priority: 3, PerPacketCost: 10 * time.Microsecond}
}

// Services declares the down link to IP (init first).
func (c *Impl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{{Name: "down", Type: core.NetServiceType, InitAfterPeers: true}}
}

// Init binds protocol 1 and creates the listen path.
func (c *Impl) Init(r *core.Router) error {
	c.router = r
	down, err := r.Link("down")
	if err != nil {
		return err
	}
	ipi, ok := down.Peer.Impl.(*ip.Impl)
	if !ok {
		return fmt.Errorf("icmp: down peer %s is not IP", down.Peer.Name)
	}
	err = ipi.BindProto(inet.ProtoICMP, func(m *msg.Msg) (*core.Path, error) {
		if c.path == nil {
			return nil, core.ErrNoPath
		}
		return c.path, nil
	})
	if err != nil {
		return err
	}
	p, err := r.Graph.CreatePath(r, attr.New().Set(attr.ProtID, inet.ProtoICMP))
	if err != nil {
		return fmt.Errorf("icmp: creating listen path: %w", err)
	}
	c.path = p
	c.thread = sched.ServeIncoming(c.cpu, "icmp", sched.PolicyRR, c.Priority, p, core.BWD)
	return nil
}

// CreateStage contributes the ICMP stage of the listen path.
func (c *Impl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	if enter != core.NoService {
		return nil, nil, errors.New("icmp: paths may only start at ICMP")
	}
	s := &core.Stage{}
	s.SetIface(core.BWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		i.Path().ChargeExec(c.PerPacketCost)
		c.process(i, m)
		return nil
	}))
	s.SetIface(core.FWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return i.DeliverNext(m)
	}))
	a.Set(attr.ProtID, inet.ProtoICMP)
	down, err := r.Link("down")
	if err != nil {
		return nil, nil, err
	}
	return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

// process answers echo requests.
func (c *Impl) process(i *core.NetIface, m *msg.Msg) {
	var src inet.Addr
	if a, _, ok := m.NetSrc(); ok { // stamped by the IP stage
		src = inet.Addr(a)
	} else {
		src, _ = m.Tag.(inet.Addr)
	}
	defer m.Free()
	raw := m.Bytes()
	e, err := Parse(raw)
	if err != nil || e.Type != TypeEchoRequest {
		return
	}
	c.requests++
	payload := raw[HeaderLen:]
	reply := msg.NewWithHeadroom(64, HeaderLen+len(payload))
	rb := reply.Bytes()
	copy(rb[HeaderLen:], payload)
	Echo{Type: TypeEchoReply, ID: e.ID, Seq: e.Seq}.Put(rb[:HeaderLen], rb[HeaderLen:])
	reply.SetNetDst([4]byte(src), 0) // per-packet destination for the wide IP stage
	c.replies++
	if err := c.path.Inject(core.FWD, reply); err != nil {
		reply.Free()
	}
}

// Stats reports (echo requests processed, replies sent).
func (c *Impl) Stats() (requests, replies int64) { return c.requests, c.replies }

// Path exposes the listen path (tests and experiments adjust its queue
// hooks and inspect its counters).
func (c *Impl) Path() *core.Path { return c.path }

// Thread exposes the path's thread so experiments can reconfigure its
// priority.
func (c *Impl) Thread() *sched.Thread { return c.thread }
