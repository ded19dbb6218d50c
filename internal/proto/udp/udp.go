// Package udp implements the UDP router. Its demux table is the final,
// deciding portion of the classification chain for datagram traffic: a UDP
// stage registers its port binding at establish time, so arriving packets
// map to their path with one lookup (§3.5).
package udp

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
)

// HeaderLen is the length of a UDP header.
const HeaderLen = 8

// Header is a UDP header.
type Header struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Put writes the header into b[:HeaderLen].
func (h Header) Put(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
}

// Parse reads a header from the front of b.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, errors.New("udp: short header")
	}
	return Header{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Length:   binary.BigEndian.Uint16(b[4:6]),
		Checksum: binary.BigEndian.Uint16(b[6:8]),
	}, nil
}

type exactKey struct {
	lport uint16
	raddr inet.Addr
	rport uint16
}

// Stats counts UDP behaviour.
type Stats struct {
	Sent        int64
	Received    int64
	BadChecksum int64
	BadLength   int64
	NoPort      int64
}

// Impl is the UDP router implementation.
type Impl struct {
	// ChecksumTx enables computing the (optional) UDP checksum on
	// transmit; ChecksumRx enables verifying it on receive.
	ChecksumTx, ChecksumRx bool
	// PerPacketCost is the flat header-processing CPU cost.
	PerPacketCost time.Duration
	// ChecksumCostPerByte models the per-byte load/add cost of the
	// checksum loop; the ILP transformation (§4.1) exists to fold this
	// into MPEG's own read of the data.
	ChecksumCostPerByte time.Duration

	router *core.Router
	ipImpl *ip.Impl

	exact    map[exactKey]*core.Path
	wildcard map[uint16]*core.Path
	nextPort uint16
	stats    Stats
}

// New returns a UDP router.
func New() *Impl {
	return &Impl{
		ChecksumTx:          true,
		ChecksumRx:          true,
		PerPacketCost:       2 * time.Microsecond,
		ChecksumCostPerByte: 2 * time.Nanosecond,
		exact:               make(map[exactKey]*core.Path),
		wildcard:            make(map[uint16]*core.Path),
		nextPort:            49152,
	}
}

// Services declares up (MFLOW, SHELL, applications) and down (IP, init
// first).
func (u *Impl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{
		{Name: "up", Type: core.NetServiceType},
		{Name: "down", Type: core.NetServiceType, InitAfterPeers: true},
	}
}

// Init binds protocol 17 in IP's classifier.
func (u *Impl) Init(r *core.Router) error {
	u.router = r
	down, err := r.Link("down")
	if err != nil {
		return err
	}
	ipi, ok := down.Peer.Impl.(*ip.Impl)
	if !ok {
		return fmt.Errorf("udp: down peer %s is not IP", down.Peer.Name)
	}
	u.ipImpl = ipi
	return ipi.BindProto(inet.ProtoUDP, u.classify)
}

// classify finishes classification: exact (local port, remote addr, remote
// port) match first, then a wildcard on the local port.
func (u *Impl) classify(m *msg.Msg) (*core.Path, error) {
	raw, err := m.Peek(HeaderLen)
	if err != nil {
		return nil, core.ErrNoPath
	}
	h, _ := Parse(raw)
	// The remote address is needed for the exact match; IP left its
	// header immediately in front of the current view, so peek backward
	// through a temporary push.
	var raddr inet.Addr
	ipHdr := m.Push(ip.HeaderLen)
	copy(raddr[:], ipHdr[12:16])
	_, _ = m.Pop(ip.HeaderLen) // restores the view the Push above extended; cannot fall short
	if p, ok := u.exact[exactKey{lport: h.DstPort, raddr: raddr, rport: h.SrcPort}]; ok {
		return p, nil
	}
	if p, ok := u.wildcard[h.DstPort]; ok {
		return p, nil
	}
	u.stats.NoPort++
	return nil, core.ErrNoPath
}

// Stats returns a snapshot of counters.
func (u *Impl) Stats() Stats { return u.stats }

type udpStage struct {
	impl   *Impl
	lport  uint16
	remote inet.Participants
	hasRem bool
	// verifyRx is replaced by the ILP transformation: when the checksum
	// is integrated into the reader above, UDP stops charging for it.
	verifyRx bool
}

// CreateStage contributes the UDP stage: it allocates or honours the local
// port, resets PA_PROTID to 17 for IP (§4.1), and registers the port
// binding in the demux table at establish time.
func (u *Impl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	sd := &udpStage{impl: u, verifyRx: u.ChecksumRx}
	if v, ok := a.Get(attr.NetParticipants); ok {
		part, ok := v.(inet.Participants)
		if !ok {
			return nil, nil, errors.New("udp: PA_NET_PARTICIPANTS is not inet.Participants")
		}
		sd.remote = part
		sd.hasRem = true
	}
	if lp, ok := a.Int(inet.AttrLocalPort); ok {
		sd.lport = uint16(lp)
	} else {
		lp, err := u.allocPort()
		if err != nil {
			return nil, nil, err
		}
		sd.lport = lp
		a.Set(inet.AttrLocalPort, int(sd.lport))
	}

	s := &core.Stage{Data: sd}
	s.SetIface(core.FWD, core.NewNetIface(sd.output))
	s.SetIface(core.BWD, core.NewNetIface(sd.input))
	s.Establish = func(s *core.Stage, a *attr.Attrs) error {
		if sd.hasRem {
			k := exactKey{lport: sd.lport, raddr: sd.remote.RemoteAddr, rport: sd.remote.RemotePort}
			if _, dup := u.exact[k]; dup {
				return fmt.Errorf("udp: %v already bound", k)
			}
			u.exact[k] = s.Path
		} else {
			if _, dup := u.wildcard[sd.lport]; dup {
				return fmt.Errorf("udp: port %d already bound", sd.lport)
			}
			u.wildcard[sd.lport] = s.Path
		}
		// The demux decision just changed: a new exact binding shadows any
		// wildcard match the flow cache may have recorded for the same
		// 5-tuple, so cached classifications are no longer trustworthy.
		u.router.Graph.InvalidateFlows()
		return nil
	}
	s.Destroy = func(s *core.Stage) {
		if sd.hasRem {
			delete(u.exact, exactKey{lport: sd.lport, raddr: sd.remote.RemoteAddr, rport: sd.remote.RemotePort})
		} else {
			delete(u.wildcard, sd.lport)
		}
		// Removing an exact binding may expose a wildcard for the same
		// port; drop cached decisions rather than serve stale ones.
		u.router.Graph.InvalidateFlows()
	}

	a.Set(attr.ProtID, inet.ProtoUDP)
	down, err := r.Link("down")
	if err != nil {
		return nil, nil, err
	}
	return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

func (u *Impl) allocPort() (uint16, error) {
	for i := 0; i < 1<<14; i++ {
		p := u.nextPort
		u.nextPort++
		if u.nextPort == 0 {
			u.nextPort = 49152
		}
		if _, used := u.wildcard[p]; !used {
			return p, nil
		}
	}
	return 0, errors.New("udp: ephemeral port space exhausted")
}

// output sends one datagram down the path.
func (sd *udpStage) output(i *core.NetIface, m *msg.Msg) error {
	u := sd.impl
	p := i.Path()
	p.ChargeExec(u.PerPacketCost)
	dest := sd.remote
	if !sd.hasRem {
		// Wide paths (SHELL) carry the per-datagram destination in the
		// message's flat metadata (or, for older producers, the Tag).
		if a, port, ok := m.NetDst(); ok {
			dest = inet.Participants{RemoteAddr: inet.Addr(a), RemotePort: port}
		} else if part, ok := m.Tag.(inet.Participants); ok {
			dest = part
		} else {
			m.Free()
			return errors.New("udp: path has no remote participants to send to")
		}
	}
	h := Header{
		SrcPort: sd.lport,
		DstPort: dest.RemotePort,
		Length:  uint16(HeaderLen + m.Len()),
	}
	h.Put(m.Push(HeaderLen))
	if u.ChecksumTx {
		p.ChargeExec(time.Duration(m.Len()) * u.ChecksumCostPerByte)
		ck := inet.ChecksumPseudo(u.ipImpl.Addr(), dest.RemoteAddr, inet.ProtoUDP, m.Bytes())
		if ck == 0 {
			ck = 0xffff
		}
		binary.BigEndian.PutUint16(m.Bytes()[6:8], ck)
	}
	u.stats.Sent++
	// Hand the per-datagram destination down to the IP stage, flat.
	m.SetNetDst([4]byte(dest.RemoteAddr), dest.RemotePort)
	return i.DeliverNext(m)
}

// input validates one inbound datagram and passes the payload up.
func (sd *udpStage) input(i *core.NetIface, m *msg.Msg) error {
	u := sd.impl
	p := i.Path()
	p.ChargeExec(u.PerPacketCost)
	raw, err := m.Peek(HeaderLen)
	if err != nil {
		m.Free()
		return err
	}
	// Parse only fails on short input, and Peek(HeaderLen) just proved length.
	h, _ := Parse(raw)
	if int(h.Length) != m.Len() {
		u.stats.BadLength++
		m.Free()
		return errors.New("udp: length mismatch")
	}
	src := sd.remote.RemoteAddr
	if !sd.hasRem {
		if a, _, ok := m.NetSrc(); ok {
			src = inet.Addr(a)
		} else if a, ok := m.Tag.(inet.Addr); ok {
			src = a
		}
	}
	if sd.verifyRx && h.Checksum != 0 {
		p.ChargeExec(time.Duration(m.Len()) * u.ChecksumCostPerByte)
		if inet.ChecksumPseudo(src, u.ipImpl.Addr(), inet.ProtoUDP, m.Bytes()) != 0 {
			u.stats.BadChecksum++
			m.Free()
			return errors.New("udp: bad checksum")
		}
	}
	if _, err := m.Pop(HeaderLen); err != nil {
		m.Free()
		return err
	}
	u.stats.Received++
	// Identify the datagram's sender to the stages above, flat: boxing a
	// Participants value into Tag would heap-allocate on every packet.
	m.SetNetSrc([4]byte(src), h.SrcPort)
	return i.DeliverNext(m)
}

// DisableRxChecksumCharge is used by the ILP transformation: UDP stage s
// stops verifying (and charging for) the checksum because the reader above
// has integrated it into its data loop (§4.1).
func DisableRxChecksumCharge(s *core.Stage) {
	if sd, ok := s.Data.(*udpStage); ok {
		sd.verifyRx = false
	}
}
