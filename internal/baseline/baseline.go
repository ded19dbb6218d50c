// Package baseline models the comparison system of Tables 1 and 2: a
// monolithic, Linux-like kernel structure. The differences from the Scout
// appliance are exactly the structural ones the paper's argument turns on:
//
//   - No early demultiplexing: every arriving packet lands in one shared IP
//     backlog and is protocol-processed at softirq (interrupt) priority —
//     "Linux handles ICMP and video packets identically inside the kernel"
//     (§4.3) — before any user process runs.
//   - A kernel/user boundary: the decoder is a user process that pays a
//     syscall and a copy of every payload byte to read its socket.
//   - A display server: decoded, dithered frames are pushed to an X-like
//     server, costing an extra traversal of every pixel plus a context
//     switch.
//
// Decode and dither costs use the same cost model as the Scout MPEG router,
// so any performance difference is attributable to structure, not to the
// codec.
package baseline

import (
	"encoding/binary"
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/mpeg"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/icmp"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/mflow"
	"scout/internal/proto/udp"
	"scout/internal/routers"
	"scout/internal/sched"
	"scout/internal/sim"
)

// Costs parameterizes the structural overheads. Decode costs come from
// routers.CostModel; the fields here are the monolithic structure's own.
type Costs struct {
	Decode routers.CostModel

	RxIRQ         time.Duration // per-frame receive interrupt
	SoftirqPacket time.Duration // per-packet protocol processing in softirq
	ICMPReply     time.Duration // building/sending an echo reply in softirq
	Syscall       time.Duration // per read()/sendto() call
	CopyPerByte   time.Duration // kernel→user socket copy
	XCopyPerPixel time.Duration // display-server redraw of a frame
	ContextSwitch time.Duration // kernel/user and client/server switches
}

// DefaultCosts reproduces mid-90s magnitudes (see EXPERIMENTS.md for the
// calibration): the decode model matches Scout's, the display-server path
// costs ≈55ns per pixel, copies run at ≈100 MB/s, syscalls ≈20µs.
func DefaultCosts() Costs {
	return Costs{
		Decode:        routers.DefaultCostModel(),
		RxIRQ:         5 * time.Microsecond,
		SoftirqPacket: 20 * time.Microsecond,
		ICMPReply:     85 * time.Microsecond,
		Syscall:       20 * time.Microsecond,
		CopyPerByte:   10 * time.Nanosecond,
		XCopyPerPixel: 55 * time.Nanosecond,
		ContextSwitch: 25 * time.Microsecond,
	}
}

// Config describes the baseline host.
type Config struct {
	MAC  netdev.MAC
	Addr inet.Addr
	Mask inet.Addr

	BacklogPackets int // shared IP input queue (default 128)
	SocketPackets  int // per-socket receive buffer (default 32)

	DisplayW, DisplayH int
	RefreshHz          int

	Costs Costs
}

// DefaultConfig returns a workable baseline configuration.
func DefaultConfig() Config {
	return Config{
		MAC:            netdev.MAC{2, 0, 0, 0, 0, 0x30},
		Addr:           inet.IP(10, 0, 0, 30),
		Mask:           inet.IP(255, 255, 255, 0),
		BacklogPackets: 128,
		SocketPackets:  32,
		DisplayW:       640,
		DisplayH:       480,
		RefreshHz:      60,
		Costs:          DefaultCosts(),
	}
}

// Stack is a booted baseline host.
type Stack struct {
	Cfg Config
	Eng *sim.Engine
	CPU *sched.Sched
	Dev *netdev.Device
	FB  *display.Device

	backlog       *core.Queue
	softirqQueued bool
	softirqFreeAt sim.Time
	sockets       map[uint16]*Socket
	arpCache      map[inet.Addr]netdev.MAC
	ipID          uint16

	// Stats
	RxFrames     int64
	BacklogDrops int64
	ICMPReplies  int64
}

// New boots a baseline stack on link.
func New(eng *sim.Engine, link *netdev.Link, cfg Config) *Stack {
	if cfg.BacklogPackets == 0 {
		cfg.BacklogPackets = 128
	}
	if cfg.SocketPackets == 0 {
		cfg.SocketPackets = 32
	}
	if cfg.DisplayW == 0 {
		cfg.DisplayW, cfg.DisplayH = 640, 480
	}
	if cfg.RefreshHz == 0 {
		cfg.RefreshHz = 60
	}
	s := &Stack{
		Cfg:      cfg,
		Eng:      eng,
		backlog:  core.NewQueue(cfg.BacklogPackets),
		sockets:  make(map[uint16]*Socket),
		arpCache: make(map[inet.Addr]netdev.MAC),
	}
	s.CPU = sched.New(eng)
	sched.AddDefaultPolicies(s.CPU, 8, 50, 50)
	s.Dev = netdev.NewDevice(link, cfg.MAC, s.CPU)
	s.Dev.RxIRQCost = cfg.Costs.RxIRQ
	s.FB = display.New(eng, s.CPU, cfg.DisplayW, cfg.DisplayH, cfg.RefreshHz)
	s.FB.VsyncIRQCost = 2 * time.Microsecond
	s.Dev.OnReceive = s.rxInterrupt
	return s
}

// rxInterrupt runs in interrupt context: no classification — just the
// shared backlog and a softirq kick.
func (s *Stack) rxInterrupt(m *msg.Msg) {
	s.RxFrames++
	if !s.backlog.Enqueue(m) {
		s.BacklogDrops++
		m.Free()
		return
	}
	s.kickSoftirq()
}

func (s *Stack) kickSoftirq() {
	if s.softirqQueued {
		return
	}
	s.softirqQueued = true
	s.Eng.At(s.Eng.Now(), s.runSoftirq)
}

// runSoftirq drains the backlog at interrupt priority: its CPU cost is
// stolen from whatever user process is running — this is where the paper's
// priority inversion lives. Softirq work is serialized on a virtual service
// clock: a packet's delivery action (socket enqueue, echo reply) happens
// only once its protocol-processing time has actually been paid, so a
// flooding peer sees replies at the rate the CPU can produce them, not at
// wire speed.
func (s *Stack) runSoftirq() {
	s.softirqQueued = false
	for {
		item := s.backlog.Dequeue()
		if item == nil {
			return
		}
		m := item.(*msg.Msg)
		cost := s.Cfg.Costs.SoftirqPacket
		extra, fn := s.process(m)
		cost += extra
		s.CPU.Interrupt(cost, nil)
		now := s.Eng.Now()
		if s.softirqFreeAt < now {
			s.softirqFreeAt = now
		}
		s.softirqFreeAt = s.softirqFreeAt.Add(cost)
		if fn != nil {
			s.Eng.At(s.softirqFreeAt, fn)
		}
	}
}

// process protocol-handles one frame, returning extra CPU and the delivery
// action.
func (s *Stack) process(m *msg.Msg) (time.Duration, func()) {
	b := m.Bytes()
	fh, err := eth.Parse(b)
	if err != nil || (fh.Dst != s.Cfg.MAC && fh.Dst != netdev.Broadcast) {
		m.Free()
		return 0, nil
	}
	if fh.Type == inet.EtherTypeARP {
		return 0, func() { s.handleARP(b[eth.HeaderLen:]); m.Free() }
	}
	if fh.Type != inet.EtherTypeIP {
		m.Free()
		return 0, nil
	}
	pb := b[eth.HeaderLen:]
	ih, err := ip.Parse(pb)
	if err != nil || ih.Dst != s.Cfg.Addr || ih.Fragmented() {
		m.Free()
		return 0, nil
	}
	body := pb[ip.HeaderLen:ih.TotalLen]
	switch ih.Proto {
	case inet.ProtoICMP:
		// Handled entirely in softirq, like a kernel.
		e, err := icmp.Parse(body)
		if err != nil || e.Type != icmp.TypeEchoRequest {
			m.Free()
			return 0, nil
		}
		payload := append([]byte(nil), body[icmp.HeaderLen:]...)
		src := ih.Src
		return s.Cfg.Costs.ICMPReply, func() {
			s.ICMPReplies++
			s.sendICMPReply(src, e, payload)
			m.Free()
		}
	case inet.ProtoUDP:
		uh, err := udp.Parse(body)
		if err != nil {
			m.Free()
			return 0, nil
		}
		sock, ok := s.sockets[uh.DstPort]
		if !ok {
			m.Free()
			return 0, nil
		}
		payload := append([]byte(nil), body[udp.HeaderLen:uh.Length]...)
		src := inet.Participants{RemoteAddr: ih.Src, RemotePort: uh.SrcPort}
		return 0, func() {
			m.Free()
			sock.deliver(src, payload)
		}
	}
	m.Free()
	return 0, nil
}

func (s *Stack) handleARP(b []byte) {
	if len(b) < 28 {
		return
	}
	op := binary.BigEndian.Uint16(b[6:8])
	var senderMAC netdev.MAC
	var senderIP, targetIP inet.Addr
	copy(senderMAC[:], b[8:14])
	copy(senderIP[:], b[14:18])
	copy(targetIP[:], b[24:28])
	s.arpCache[senderIP] = senderMAC
	if op == 1 && targetIP == s.Cfg.Addr {
		rep := make([]byte, 28)
		binary.BigEndian.PutUint16(rep[0:2], 1)
		binary.BigEndian.PutUint16(rep[2:4], 0x0800)
		rep[4], rep[5] = 6, 4
		binary.BigEndian.PutUint16(rep[6:8], 2)
		copy(rep[8:14], s.Cfg.MAC[:])
		copy(rep[14:18], s.Cfg.Addr[:])
		copy(rep[18:24], senderMAC[:])
		copy(rep[24:28], senderIP[:])
		s.sendFrame(senderMAC, inet.EtherTypeARP, rep)
	}
}

func (s *Stack) sendFrame(dst netdev.MAC, etherType uint16, payload []byte) {
	m := msg.NewWithHeadroom(eth.HeaderLen, len(payload))
	copy(m.Bytes(), payload)
	eth.Header{Dst: dst, Src: s.Cfg.MAC, Type: etherType}.Put(m.Push(eth.HeaderLen))
	s.Dev.Transmit(dst, m)
}

func (s *Stack) sendIP(dst inet.Addr, proto uint8, body []byte) {
	mac, ok := s.arpCache[dst]
	if !ok {
		return // peers ARP us first in every experiment; drop otherwise
	}
	s.ipID++
	pkt := make([]byte, ip.HeaderLen+len(body))
	ih := ip.Header{TotalLen: uint16(len(pkt)), ID: s.ipID, TTL: 64, Proto: proto, Src: s.Cfg.Addr, Dst: dst}
	ih.Put(pkt[:ip.HeaderLen])
	copy(pkt[ip.HeaderLen:], body)
	s.sendFrame(mac, inet.EtherTypeIP, pkt)
}

func (s *Stack) sendICMPReply(dst inet.Addr, e icmp.Echo, payload []byte) {
	body := make([]byte, icmp.HeaderLen+len(payload))
	copy(body[icmp.HeaderLen:], payload)
	icmp.Echo{Type: icmp.TypeEchoReply, ID: e.ID, Seq: e.Seq}.Put(body[:icmp.HeaderLen], body[icmp.HeaderLen:])
	s.sendIP(dst, inet.ProtoICMP, body)
}

func (s *Stack) sendUDP(dst inet.Addr, dstPort, srcPort uint16, payload []byte) {
	dg := make([]byte, udp.HeaderLen+len(payload))
	udp.Header{SrcPort: srcPort, DstPort: dstPort, Length: uint16(len(dg))}.Put(dg[:udp.HeaderLen])
	copy(dg[udp.HeaderLen:], payload)
	s.sendIP(dst, inet.ProtoUDP, dg)
}

// Socket is a UDP socket owned by a decoder process.
type Socket struct {
	stack *Stack
	port  uint16
	q     *core.Queue
	proc  *Proc
	Drops int64
}

type sockDatagram struct {
	src     inet.Participants
	payload []byte
}

func (so *Socket) deliver(src inet.Participants, payload []byte) {
	if !so.q.Enqueue(sockDatagram{src: src, payload: payload}) {
		so.Drops++
		return
	}
	if so.proc != nil {
		so.proc.thread.Wake()
	}
}

// ProcConfig describes a decoder process bound to a socket.
type ProcConfig struct {
	Port     uint16
	FPS      int
	Frames   int
	CostOnly bool
	OutQueue int // decoded-frame queue toward the display server
	Priority int // user process priority (single level in practice)
}

// Proc is a user-space MPEG decoder process: read() → copy → decode →
// dither → hand to the display server.
type Proc struct {
	stack  *Stack
	cfg    ProcConfig
	sock   *Socket
	thread *sched.Thread
	outQ   *core.Queue
	sink   *display.Sink

	hdrDec *mpeg.HeaderDecoder
	dec    *mpeg.Decoder
	mfl    struct {
		started bool
		lastSeq uint32
	}
	pendingAcks []ackInfo

	Packets int64
	Frames  int64
}

type ackInfo struct {
	src inet.Participants
	ts  int64
}

// NewProc creates the decoder process and its socket.
func (s *Stack) NewProc(cfg ProcConfig) (*Proc, error) {
	if _, dup := s.sockets[cfg.Port]; dup {
		return nil, fmt.Errorf("baseline: port %d already bound", cfg.Port)
	}
	if cfg.FPS == 0 {
		cfg.FPS = 30
	}
	if cfg.OutQueue == 0 {
		cfg.OutQueue = 32
	}
	p := &Proc{stack: s, cfg: cfg}
	p.sock = &Socket{stack: s, port: cfg.Port, q: core.NewQueue(s.Cfg.SocketPackets), proc: p}
	s.sockets[cfg.Port] = p.sock
	p.outQ = core.NewQueue(cfg.OutQueue)
	period := time.Duration(int64(time.Second) / int64(cfg.FPS))
	p.sink = s.FB.Attach(fmt.Sprintf("proc:%d", cfg.Port), p.outQ, period, cfg.Frames)
	p.sink.WaitFirst = true
	if cfg.CostOnly {
		p.hdrDec = &mpeg.HeaderDecoder{}
	} else {
		p.dec = mpeg.NewDecoder()
	}
	p.thread = s.CPU.NewThread(fmt.Sprintf("proc-%d", cfg.Port), sched.PolicyRR, p.run)
	p.thread.SetPriority(cfg.Priority)
	p.sink.OnDrain = p.thread.Wake
	return p, nil
}

// Sink exposes the process's display sink.
func (p *Proc) Sink() *display.Sink { return p.sink }

// run is one scheduling quantum of the decoder process: read and process
// one datagram.
func (p *Proc) run(t *sched.Thread) (time.Duration, func()) {
	s := p.stack
	c := s.Cfg.Costs
	if p.outQ.Full() {
		return 0, nil
	}
	item := p.sock.q.Dequeue()
	if item == nil {
		return 0, nil
	}
	dg := item.(sockDatagram)
	p.Packets++

	// read(): syscall + kernel→user copy of the payload.
	cost := c.Syscall + c.ContextSwitch + time.Duration(len(dg.payload))*c.CopyPerByte

	var frames []*display.Frame
	fh, err := mflow.Parse(dg.payload)
	if err == nil && fh.Kind == mflow.KindData {
		fresh := !p.mfl.started || fh.Seq > p.mfl.lastSeq
		if fresh {
			p.mfl.started = true
			p.mfl.lastSeq = fh.Seq
			alf := dg.payload[mflow.HeaderLen:]
			fcost, fs := p.decode(alf)
			cost += fcost
			frames = fs
			// sendto() for the window advertisement.
			cost += c.Syscall
			p.pendingAcks = append(p.pendingAcks, ackInfo{src: dg.src, ts: fh.TS})
		}
	}
	return cost, func() {
		for _, a := range p.pendingAcks {
			win := p.mfl.lastSeq + uint32(p.sock.q.Free())
			ab := make([]byte, mflow.HeaderLen)
			mflow.Header{Kind: mflow.KindAck, Seq: p.mfl.lastSeq, Win: win, TS: a.ts}.Put(ab)
			s.sendUDP(a.src.RemoteAddr, a.src.RemotePort, p.cfg.Port, ab)
		}
		p.pendingAcks = p.pendingAcks[:0]
		for _, f := range frames {
			p.outQ.Enqueue(f)
		}
		if !p.sock.q.Empty() && !p.outQ.Full() {
			t.Wake()
		}
	}
}

// decode consumes one ALF packet and returns its CPU cost plus any
// completed frames (dithered and pushed through the display server).
func (p *Proc) decode(alf []byte) (time.Duration, []*display.Frame) {
	c := p.stack.Cfg.Costs
	pkt, err := mpeg.ParsePacket(alf)
	if err != nil {
		return 0, nil
	}
	cost := c.Decode.PerPacket + time.Duration(len(pkt.Data)*8)*c.Decode.PerBit
	var done *display.Frame
	if p.hdrDec != nil {
		tf, ok, err := p.hdrDec.Consume(pkt)
		if err == nil && ok {
			done = &display.Frame{Seq: int(tf.No), W: int(pkt.MBW) * 16, H: int(pkt.MBH) * 16, Bits: tf.Bits}
		}
	} else {
		// A decode error just means no frame completed this packet; the
		// baseline charges the same cost either way and moves on.
		f, _ := p.dec.Decode(pkt)
		if f != nil {
			done = &display.Frame{Seq: int(p.Frames), W: f.W, H: f.H}
			done.Pixels = mpeg.DitherRGB332(f, nil)
		}
	}
	if done == nil {
		return cost, nil
	}
	p.Frames++
	px := time.Duration(done.W * done.H)
	// Dither (same as Scout) + display-server redraw + the switch to it.
	cost += px*c.Decode.PerPixel + px*c.XCopyPerPixel + c.ContextSwitch
	return cost, []*display.Frame{done}
}
