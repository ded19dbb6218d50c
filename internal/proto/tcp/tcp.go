// Package tcp implements the TCP router of Figure 3's web-server graph: a
// simplified but functional TCP with three-way handshake, cumulative
// acknowledgments, go-back-N retransmission, flow-controlled transmission
// and orderly close. Scout's path-per-connection strategy (§2.5: "one per
// TCP connection") appears here directly: a listening path catches SYNs and
// each accepted connection gets its own freshly created path through the
// router graph.
package tcp

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
	"scout/internal/sim"
)

// HeaderLen is the TCP header length (no options).
const HeaderLen = 20

// Header flags.
const (
	FlagFIN = 0x01
	FlagSYN = 0x02
	FlagRST = 0x04
	FlagPSH = 0x08
	FlagACK = 0x10
)

// Header is a TCP header.
type Header struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint16
	Win              uint16
	Checksum         uint16
}

// Put writes the header into b[:HeaderLen].
func (h Header) Put(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	binary.BigEndian.PutUint16(b[12:14], 5<<12|h.Flags&0x3f)
	binary.BigEndian.PutUint16(b[14:16], h.Win)
	binary.BigEndian.PutUint16(b[16:18], h.Checksum)
	binary.BigEndian.PutUint16(b[18:20], 0)
}

// Parse reads a header from the front of b.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, errors.New("tcp: short header")
	}
	offFlags := binary.BigEndian.Uint16(b[12:14])
	if offFlags>>12 != 5 {
		return Header{}, errors.New("tcp: options unsupported")
	}
	return Header{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Seq:      binary.BigEndian.Uint32(b[4:8]),
		Ack:      binary.BigEndian.Uint32(b[8:12]),
		Flags:    offFlags & 0x3f,
		Win:      binary.BigEndian.Uint16(b[14:16]),
		Checksum: binary.BigEndian.Uint16(b[16:18]),
	}, nil
}

// Events delivered to the router above through message tags.
type Event int

const (
	// EventEstablished: the handshake completed.
	EventEstablished Event = iota + 1
	// EventRemoteClosed: the peer sent FIN; no more data will arrive.
	EventRemoteClosed
	// EventClosed: the connection is fully closed.
	EventClosed
	// EventClose is sent *down* by the upper router to close the
	// connection after pending data drains.
	EventClose
)

// Attribute names used during connection-path creation; declared in the
// central vocabulary (package attr) and re-exported here for doc locality.
const (
	// AttrPassive marks a path created in response to a SYN. Value: bool.
	AttrPassive = attr.TCPPassive
	// AttrRemoteSeq carries the peer's initial sequence number. Value: int.
	AttrRemoteSeq = attr.TCPRemoteSeq
)

// Connection states.
type state int

const (
	stClosed state = iota
	stListen
	stSynSent
	stSynRcvd
	stEstablished
	stFinWait1
	stFinWait2
	stCloseWait
	stLastAck
)

type exactKey struct {
	lport uint16
	raddr inet.Addr
	rport uint16
}

// Stats counts TCP behaviour.
type Stats struct {
	SegsIn, SegsOut  int64
	Retransmits      int64
	BadChecksum      int64
	Accepted, Resets int64
}

// Impl is the TCP router implementation.
type Impl struct {
	cpu *sched.Sched
	eng *sim.Engine

	// MSS bounds segment payloads.
	MSS int
	// RTO is the (fixed) retransmission timeout; MaxRetries bounds
	// retransmission attempts before reset.
	RTO        time.Duration
	MaxRetries int
	// Window is the receive window advertised (and the send window cap).
	Window int
	// PerSegCost and CostPerByte model protocol CPU.
	PerSegCost  time.Duration
	CostPerByte time.Duration

	router *core.Router
	ipImpl *ip.Impl

	exact         map[exactKey]*core.Path
	listen        map[uint16]*core.Path
	nextEphemeral uint16
	isn           uint32
	stats         Stats
}

// New returns a TCP router scheduling on cpu.
func New(cpu *sched.Sched) *Impl {
	return &Impl{
		cpu:           cpu,
		eng:           cpu.Engine(),
		MSS:           1400,
		RTO:           200 * time.Millisecond,
		MaxRetries:    8,
		Window:        32 * 1024,
		PerSegCost:    10 * time.Microsecond,
		CostPerByte:   2 * time.Nanosecond,
		exact:         make(map[exactKey]*core.Path),
		listen:        make(map[uint16]*core.Path),
		nextEphemeral: 42000,
		isn:           1000,
	}
}

// Services declares up (applications) and down (IP, init first).
func (t *Impl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{
		{Name: "up", Type: core.NetServiceType},
		{Name: "down", Type: core.NetServiceType, InitAfterPeers: true},
	}
}

// Init binds protocol 6 in IP's classifier.
func (t *Impl) Init(r *core.Router) error {
	t.router = r
	down, err := r.Link("down")
	if err != nil {
		return err
	}
	ipi, ok := down.Peer.Impl.(*ip.Impl)
	if !ok {
		return fmt.Errorf("tcp: down peer %s is not IP", down.Peer.Name)
	}
	t.ipImpl = ipi
	return ipi.BindProto(inet.ProtoTCP, t.classify)
}

// classify finds the connection path (exact match) or the listening path.
func (t *Impl) classify(m *msg.Msg) (*core.Path, error) {
	raw, err := m.Peek(HeaderLen)
	if err != nil {
		return nil, core.ErrNoPath
	}
	h, err := Parse(raw)
	if err != nil {
		return nil, core.ErrNoPath
	}
	var raddr inet.Addr
	ipHdr := m.Push(ip.HeaderLen)
	copy(raddr[:], ipHdr[12:16])
	_, _ = m.Pop(ip.HeaderLen) // restores the view the Push above extended; cannot fall short
	if p, ok := t.exact[exactKey{lport: h.DstPort, raddr: raddr, rport: h.SrcPort}]; ok {
		return p, nil
	}
	if p, ok := t.listen[h.DstPort]; ok {
		return p, nil
	}
	return nil, core.ErrNoPath
}

// Stats returns a snapshot of counters.
func (t *Impl) Stats() Stats { return t.stats }

// CreateStage contributes a TCP stage. Three flavours, selected by the
// invariants: listening (local port, no participants), passive connection
// (participants + AttrPassive, created by the listen stage on SYN) and
// active connection (participants only: establish sends a SYN).
func (t *Impl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	c := &conn{impl: t}
	if v, ok := a.Get(attr.NetParticipants); ok {
		part, ok := v.(inet.Participants)
		if !ok {
			return nil, nil, errors.New("tcp: bad participants")
		}
		c.remote = part
		c.hasRemote = true
	}
	if lp, ok := a.Int(inet.AttrLocalPort); ok {
		c.lport = uint16(lp)
	} else {
		lp, err := t.allocPort()
		if err != nil {
			return nil, nil, err
		}
		c.lport = lp
		a.Set(inet.AttrLocalPort, int(c.lport))
	}
	passive, _ := a.Get(AttrPassive)
	c.passive, _ = passive.(bool)
	if rs, ok := a.Int(AttrRemoteSeq); ok {
		c.rcvNxt = uint32(rs) + 1 // their SYN consumed one sequence number
	}

	s := &core.Stage{Data: c}
	c.stage = s
	fwd := core.NewNetIface(c.output)
	s.SetIface(core.FWD, fwd)
	s.SetIface(core.BWD, core.NewNetIface(c.input))
	c.out = fwd

	s.Establish = func(s *core.Stage, a *attr.Attrs) error { return c.establish() }
	s.Destroy = func(*core.Stage) { c.teardown() }

	a.Set(attr.ProtID, inet.ProtoTCP)
	down, err := r.Link("down")
	if err != nil {
		return nil, nil, err
	}
	return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

func (t *Impl) allocPort() (uint16, error) {
	for i := 0; i < 1<<14; i++ {
		p := t.nextEphemeral
		t.nextEphemeral++
		if t.nextEphemeral == 0 {
			t.nextEphemeral = 42000
		}
		if _, used := t.listen[p]; !used {
			return p, nil
		}
	}
	return 0, errors.New("tcp: ephemeral port space exhausted")
}

// Conn is a read-only handle to a connection stage's state.
type Conn struct{ c *conn }

// State reports a human-readable connection state.
func (cn *Conn) State() string {
	switch cn.c.state {
	case stListen:
		return "listen"
	case stSynSent:
		return "syn-sent"
	case stSynRcvd:
		return "syn-rcvd"
	case stEstablished:
		return "established"
	case stFinWait1:
		return "fin-wait-1"
	case stFinWait2:
		return "fin-wait-2"
	case stCloseWait:
		return "close-wait"
	case stLastAck:
		return "last-ack"
	default:
		return "closed"
	}
}

// Established reports whether the handshake completed.
func (cn *Conn) Established() bool { return cn.c.state == stEstablished }
