// Package host implements lightweight network endpoints that live on the
// simulated Ethernet next to the Scout appliance: the MPEG video source, the
// ping flooder of Table 2, and the shell command client. These peers build
// and parse frames directly (they are traffic generators, not systems under
// test), but they speak the real wire formats of the proto packages, so
// everything the Scout kernel receives went through genuine headers,
// checksums and ARP exchanges.
package host

import (
	"encoding/binary"
	"time"

	"scout/internal/fbuf"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/eth"
	"scout/internal/proto/icmp"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/proto/udp"
	"scout/internal/sim"
)

// UDPHandler consumes an inbound datagram's payload. The slice lies in the
// received frame and is valid only during the call: a handler that keeps any
// of it copies what it keeps.
type UDPHandler func(src inet.Participants, payload []byte)

// Host is a scriptable endpoint.
type Host struct {
	Dev  *netdev.Device
	Addr inet.Addr

	eng    *sim.Engine
	frames frameSource // where a Source draws each video packet's buffer

	arpCache   map[inet.Addr]netdev.MAC
	arpPending map[inet.Addr]*arpQuery

	// ARPTimeout is the wait before the first ARP re-request (default
	// 500ms), doubling per retry; ARPRetries caps requests per address
	// (default 8). A request lost on a faulty link is retried instead of
	// stranding every queued send forever.
	ARPTimeout time.Duration
	ARPRetries int

	udpHandlers map[uint16]UDPHandler
	tcpConns    map[uint16]*TCPConn
	ipID        uint16

	// UDPChecksum controls checksum generation on transmit.
	UDPChecksum bool

	// OnEchoReply observes ICMP echo replies addressed to this host.
	OnEchoReply func(id, seq uint16)

	EchoSent, EchoReplies int64
	UDPSent, UDPReceived  int64
}

// New attaches a host with the given identity to link.
func New(link *netdev.Link, mac netdev.MAC, addr inet.Addr) *Host {
	h := newHost(addr)
	h.Dev = netdev.NewDevice(link, mac, nil)
	h.eng = h.Dev.Engine()
	h.frames = framePoolOf(h.eng)
	h.Dev.OnReceive = h.receive
	return h
}

// NewOn attaches a host to a specific side of a cross-shard link, identified
// by the shard engine it must be confined to. For local links it behaves
// like New (eng must be the link's engine).
func NewOn(link *netdev.Link, mac netdev.MAC, addr inet.Addr, eng *sim.Engine) *Host {
	h := newHost(addr)
	h.Dev = netdev.NewDeviceOn(link, mac, nil, eng)
	h.eng = eng
	h.frames = framePoolOf(eng)
	h.Dev.OnReceive = h.receive
	return h
}

func newHost(addr inet.Addr) *Host {
	return &Host{
		Addr:        addr,
		arpCache:    make(map[inet.Addr]netdev.MAC),
		arpPending:  make(map[inet.Addr]*arpQuery),
		udpHandlers: make(map[uint16]UDPHandler),
		UDPChecksum: true,
		ARPTimeout:  500 * time.Millisecond,
		ARPRetries:  8,
	}
}

// Engine returns the simulation engine.
func (h *Host) Engine() *sim.Engine { return h.eng }

// OnUDP installs a handler for datagrams to the given local port.
func (h *Host) OnUDP(port uint16, fn UDPHandler) { h.udpHandlers[port] = fn }

// receive parses one frame.
func (h *Host) receive(m *msg.Msg) {
	defer m.Free()
	b := m.Bytes()
	fh, err := eth.Parse(b)
	if err != nil {
		return
	}
	if fh.Dst != h.Dev.Addr && fh.Dst != netdev.Broadcast {
		return
	}
	payload := b[eth.HeaderLen:]
	switch fh.Type {
	case inet.EtherTypeARP:
		h.handleARP(payload)
	case inet.EtherTypeIP:
		h.handleIP(payload)
	}
}

func (h *Host) handleIP(b []byte) {
	ih, err := ip.Parse(b)
	if err != nil || ih.Dst != h.Addr || ih.Fragmented() {
		return // hosts do not reassemble; sources never receive fragments
	}
	if int(ih.TotalLen) < ip.HeaderLen || int(ih.TotalLen) > len(b) {
		return
	}
	body := b[ip.HeaderLen:ih.TotalLen]
	switch ih.Proto {
	case inet.ProtoTCP:
		h.handleTCP(ih, body)
	case inet.ProtoUDP:
		uh, err := udp.Parse(body)
		if err != nil || int(uh.Length) < udp.HeaderLen || int(uh.Length) > len(body) {
			return
		}
		fn, ok := h.udpHandlers[uh.DstPort]
		if !ok {
			return
		}
		h.UDPReceived++
		fn(inet.Participants{RemoteAddr: ih.Src, RemotePort: uh.SrcPort}, body[udp.HeaderLen:uh.Length])
	case inet.ProtoICMP:
		e, err := icmp.Parse(body)
		if err != nil {
			return
		}
		switch e.Type {
		case icmp.TypeEchoRequest:
			h.sendICMP(ih.Src, icmp.Echo{Type: icmp.TypeEchoReply, ID: e.ID, Seq: e.Seq}, body[icmp.HeaderLen:])
		case icmp.TypeEchoReply:
			h.EchoReplies++
			if h.OnEchoReply != nil {
				h.OnEchoReply(e.ID, e.Seq)
			}
		}
	}
}

// arpQuery tracks one in-flight resolution: queued sends plus the retry
// timer that re-broadcasts the request if the answer never comes.
type arpQuery struct {
	callbacks []func(netdev.MAC)
	tries     int
	timeout   time.Duration
	timer     *sim.Event
}

// Resolve maps an IP address to a MAC via ARP, invoking fn when known. A
// lost request or reply is retried with exponential backoff; after
// ARPRetries attempts the queued sends are dropped (hosts are traffic
// generators — the loss shows up in the receiver's stats, as on a real
// network).
func (h *Host) Resolve(dst inet.Addr, fn func(netdev.MAC)) {
	if mac, ok := h.arpCache[dst]; ok {
		fn(mac)
		return
	}
	q, inflight := h.arpPending[dst]
	if !inflight {
		q = &arpQuery{timeout: h.ARPTimeout}
		h.arpPending[dst] = q
	}
	q.callbacks = append(q.callbacks, fn)
	if !inflight {
		h.transmitARP(dst, q)
	}
}

func (h *Host) transmitARP(dst inet.Addr, q *arpQuery) {
	q.tries++
	req := make([]byte, 28)
	binary.BigEndian.PutUint16(req[0:2], 1)
	binary.BigEndian.PutUint16(req[2:4], 0x0800)
	req[4], req[5] = 6, 4
	binary.BigEndian.PutUint16(req[6:8], 1) // request
	copy(req[8:14], h.Dev.Addr[:])
	copy(req[14:18], h.Addr[:])
	copy(req[24:28], dst[:])
	h.sendFrame(netdev.Broadcast, inet.EtherTypeARP, req)
	if q.tries >= h.ARPRetries {
		q.timer = h.eng.After(q.timeout, func() {
			if h.arpPending[dst] == q {
				delete(h.arpPending, dst) // give up; queued sends are dropped
			}
		})
		return
	}
	q.timer = h.eng.After(q.timeout, func() {
		if h.arpPending[dst] != q {
			return // resolved meanwhile
		}
		h.transmitARP(dst, q)
	})
	q.timeout *= 2
}

func (h *Host) handleARP(b []byte) {
	if len(b) < 28 {
		return
	}
	op := binary.BigEndian.Uint16(b[6:8])
	var senderMAC netdev.MAC
	var senderIP, targetIP inet.Addr
	copy(senderMAC[:], b[8:14])
	copy(senderIP[:], b[14:18])
	copy(targetIP[:], b[24:28])
	// Learn the sender either way.
	h.arpCache[senderIP] = senderMAC
	if q, ok := h.arpPending[senderIP]; ok {
		delete(h.arpPending, senderIP)
		if q.timer != nil {
			q.timer.Cancel()
		}
		for _, fn := range q.callbacks {
			fn(senderMAC)
		}
	}
	if op == 1 && targetIP == h.Addr {
		rep := make([]byte, 28)
		binary.BigEndian.PutUint16(rep[0:2], 1)
		binary.BigEndian.PutUint16(rep[2:4], 0x0800)
		rep[4], rep[5] = 6, 4
		binary.BigEndian.PutUint16(rep[6:8], 2) // reply
		copy(rep[8:14], h.Dev.Addr[:])
		copy(rep[14:18], h.Addr[:])
		copy(rep[18:24], senderMAC[:])
		copy(rep[24:28], senderIP[:])
		h.sendFrame(senderMAC, inet.EtherTypeARP, rep)
	}
}

// A packet is built once: its payload is written into one message that
// already has room in front for every header below it, and each layer pushes
// its header into that headroom. The []byte entry points (SendFrame,
// SendUDP, sendIP, sendICMP) copy their argument into such a message and
// join the same path.
const (
	ipHeadroom  = eth.HeaderLen + ip.HeaderLen // in front of an IP body
	udpHeadroom = ipHeadroom + udp.HeaderLen   // in front of a UDP payload
)

// framePoolLimit is twice the 32-packet input queue a video path advertises
// as its MFLOW window: one window in flight plus one held by the receiver
// covers a max-rate stream, and 64 MTU buffers are at most 97 kB retained per
// engine however many hosts it simulates. A pool with no limit, per host or
// shared, keeps its high-water mark (packets held behind a resequencing hole,
// 64 paced hosts at once), and sync.Pool has no cap and retains by collector
// timing: ROADMAP item 4 has the measurements.
const framePoolLimit = 64

// frameSource is a frame pool's Get. Host.frames has this type, and not
// *fbuf.Pool, so that a test can stand a pool that poisons released buffers
// in its place.
type frameSource interface {
	Get(n int) (*msg.Msg, error)
}

type framePoolKey struct{}

// framePoolOf returns the pool that every host on eng draws its video
// packets' buffers from: the largest UDP payload an Ethernet frame carries,
// behind udpHeadroom, with nothing allocated until it is asked for. The
// message travels the wire as it is, so the receiving kernel's final Free is
// what returns the buffer, from whatever shard it runs on (the pool locks).
// At the limit Get fails and the sender falls back to a GC-owned message.
//
// The pool lives and dies with the engine. The limit counts buffers that are
// out as well as free ones, and a world dropped with packets in flight never
// frees them: in a pool that outlived it they would count against every
// later world, for good.
//
// Pool buffers come back dirty: only a sender that overwrites every payload
// byte may draw from it (the headers pushed in front always write all of
// theirs).
func framePoolOf(eng *sim.Engine) *fbuf.Pool {
	return eng.Local(framePoolKey{}, func() any {
		return fbuf.NewPool(netdev.MTU-ip.HeaderLen-udp.HeaderLen, udpHeadroom, 0, framePoolLimit)
	}).(*fbuf.Pool)
}

// SendFrame transmits a raw Ethernet payload (tests use it to inject
// hand-built packets such as IP fragments).
func (h *Host) SendFrame(dst netdev.MAC, etherType uint16, payload []byte) {
	h.sendFrame(dst, etherType, payload)
}

func (h *Host) sendFrame(dst netdev.MAC, etherType uint16, payload []byte) {
	m := msg.NewWithHeadroom(eth.HeaderLen, len(payload))
	copy(m.Bytes(), payload)
	h.transmitFrame(dst, etherType, m)
}

// transmitFrame puts the Ethernet header in front of m and sends the frame.
func (h *Host) transmitFrame(dst netdev.MAC, etherType uint16, m *msg.Msg) {
	eth.Header{Dst: dst, Src: h.Dev.Addr, Type: etherType}.Put(m.Push(eth.HeaderLen))
	h.Dev.Transmit(dst, m)
}

// sendIP wraps body in an IP header and transmits it (resolving via ARP).
func (h *Host) sendIP(dst inet.Addr, proto uint8, body []byte) {
	m := msg.NewWithHeadroom(ipHeadroom, len(body))
	copy(m.Bytes(), body)
	h.transmitIP(dst, proto, m)
}

// transmitIP sends the IP body m to dst. The IP ID is assigned when the
// destination's MAC is known, so packets queued behind an ARP exchange are
// numbered in the order they leave; only such a packet costs a closure.
func (h *Host) transmitIP(dst inet.Addr, proto uint8, m *msg.Msg) {
	if mac, ok := h.arpCache[dst]; ok {
		h.emitIP(mac, dst, proto, m)
		return
	}
	h.Resolve(dst, func(mac netdev.MAC) { h.emitIP(mac, dst, proto, m) })
}

func (h *Host) emitIP(mac netdev.MAC, dst inet.Addr, proto uint8, m *msg.Msg) {
	h.ipID++
	ip.Header{
		TotalLen: uint16(ip.HeaderLen + m.Len()),
		ID:       h.ipID,
		TTL:      64,
		Proto:    proto,
		Src:      h.Addr,
		Dst:      dst,
	}.Put(m.Push(ip.HeaderLen))
	h.transmitFrame(mac, inet.EtherTypeIP, m)
}

// SendUDP transmits one datagram.
func (h *Host) SendUDP(dst inet.Addr, dstPort, srcPort uint16, payload []byte) {
	m := msg.NewWithHeadroom(udpHeadroom, len(payload))
	copy(m.Bytes(), payload)
	h.transmitUDP(dst, dstPort, srcPort, m, len(payload), 0)
}

// transmitUDP sends the UDP payload m, which must have udpHeadroom in front.
// The checksum runs over the UDP header and the first head payload bytes
// where they lie; rest is the folded sum of the payload bytes after them, at
// the parity of their offset in the datagram (0 when head covers them all).
func (h *Host) transmitUDP(dst inet.Addr, dstPort, srcPort uint16, m *msg.Msg, head int, rest uint16) {
	m.Push(udp.HeaderLen)
	dg := m.Bytes()
	udp.Header{SrcPort: srcPort, DstPort: dstPort, Length: uint16(len(dg))}.Put(dg)
	if h.UDPChecksum {
		acc := inet.PseudoSum(h.Addr, dst, inet.ProtoUDP, len(dg)) + uint64(rest)
		ck := ^inet.Fold(inet.Sum(acc, dg[:udp.HeaderLen+head]))
		if ck == 0 {
			ck = 0xffff
		}
		binary.BigEndian.PutUint16(dg[6:8], ck)
	}
	h.UDPSent++
	h.transmitIP(dst, inet.ProtoUDP, m)
}

// SendEcho transmits one ICMP echo request with a payload of size zero
// bytes, which a new message already holds.
func (h *Host) SendEcho(dst inet.Addr, id, seq uint16, size int) {
	h.EchoSent++
	h.transmitICMP(dst, icmp.Echo{Type: icmp.TypeEchoRequest, ID: id, Seq: seq}, msg.NewWithHeadroom(ipHeadroom, icmp.HeaderLen+size))
}

func (h *Host) sendICMP(dst inet.Addr, e icmp.Echo, payload []byte) {
	m := msg.NewWithHeadroom(ipHeadroom, icmp.HeaderLen+len(payload))
	copy(m.Bytes()[icmp.HeaderLen:], payload)
	h.transmitICMP(dst, e, m)
}

// transmitICMP writes e in front of the echo payload m already holds (behind
// icmp.HeaderLen bytes left for it) and sends the message.
func (h *Host) transmitICMP(dst inet.Addr, e icmp.Echo, m *msg.Msg) {
	body := m.Bytes()
	e.Put(body[:icmp.HeaderLen], body[icmp.HeaderLen:])
	h.transmitIP(dst, inet.ProtoICMP, m)
}

// Flood sends ICMP echo requests at a fixed rate — the reproduction of
// `ping -f` (Table 2).
type Flood struct {
	h      *Host
	ticker *sim.Ticker
	seq    uint16
}

// FloodEcho starts a flood of payloadSize-byte echo requests to dst at the
// given packets-per-second rate.
func (h *Host) FloodEcho(dst inet.Addr, pps float64, payloadSize int) *Flood {
	if pps <= 0 {
		panic("host: flood rate must be positive")
	}
	f := &Flood{h: h}
	interval := sim.Time(float64(sim.Time(1_000_000_000)) / pps)
	f.ticker = h.eng.Tick(interval.Duration(), func() {
		f.seq++
		h.SendEcho(dst, 0x7777, f.seq, payloadSize)
	})
	return f
}

// Stop ends the flood.
func (f *Flood) Stop() { f.ticker.Stop() }

// Sent reports echo requests sent by this flood.
func (f *Flood) Sent() int64 { return int64(f.seq) }

// AdaptiveFlood reproduces `ping -f`'s actual behaviour: it "outputs
// packets as fast as they come back or one hundred times per second,
// whichever is more". Each reply triggers the next request (up to a small
// pipeline depth), with a 100 pps floor. Against a host that answers ICMP
// eagerly in the kernel (the baseline) the loop escalates; against Scout,
// where the ICMP path runs below the video path's priority, replies starve
// and the flood throttles itself to the floor — which is exactly why
// Table 2's Scout column barely moves.
type AdaptiveFlood struct {
	h        *Host
	dst      inet.Addr
	size     int
	depth    int
	turn     time.Duration
	seq      uint16
	out      int // requests in flight
	stopped  bool
	ticker   *sim.Ticker
	lastSend sim.Time

	Sent    int64
	Replies int64
}

// FloodEchoAdaptive starts a closed-loop flood with the given pipeline
// depth (ping -f keeps a small number of requests outstanding). Each reply
// triggers the next request after turnaround — the pinging machine's own
// per-echo kernel cost. The 100 pps floor fires only after 10ms of silence,
// treating outstanding requests as lost — "as fast as they come back or one
// hundred times per second, whichever is more".
func (h *Host) FloodEchoAdaptive(dst inet.Addr, depth, payloadSize int, turnaround time.Duration) *AdaptiveFlood {
	if depth <= 0 {
		depth = 1
	}
	f := &AdaptiveFlood{h: h, dst: dst, size: payloadSize, depth: depth, turn: turnaround, lastSend: -1}
	h.OnEchoReply = func(id, seq uint16) {
		if id != 0x7777 || f.stopped {
			return
		}
		f.Replies++
		// Strict self-clocking: only the reply to the most recent
		// request drives the loop; replies to older (floor-resent)
		// requests are stale and must not multiply the in-flight count.
		if seq != f.seq {
			return
		}
		f.out = 0
		if f.turn > 0 {
			h.eng.After(f.turn, f.fire)
		} else {
			f.fire()
		}
	}
	f.ticker = h.eng.Tick(10*time.Millisecond, func() {
		if !f.stopped && h.eng.Now().Sub(f.lastSend) >= 10*time.Millisecond {
			f.out = 0 // outstanding requests are presumed lost
			f.fire()
		}
	})
	f.fire()
	return f
}

func (f *AdaptiveFlood) fire() {
	if f.stopped || f.out >= f.depth {
		return
	}
	f.out++
	f.seq++
	f.Sent++
	f.lastSend = f.h.eng.Now()
	f.h.SendEcho(f.dst, 0x7777, f.seq, f.size)
}

// Stop ends the flood.
func (f *AdaptiveFlood) Stop() {
	f.stopped = true
	f.ticker.Stop()
}

// Rate reports the average send rate so far in packets per second.
func (f *AdaptiveFlood) Rate() float64 {
	now := f.h.eng.Now().Seconds()
	if now <= 0 {
		return 0
	}
	return float64(f.Sent) / now
}

// Command sends a SHELL command and invokes reply with the answer text.
func (h *Host) Command(dst inet.Addr, shellPort, srcPort uint16, cmd string, reply func(string)) {
	if reply != nil {
		h.OnUDP(srcPort, func(src inet.Participants, payload []byte) {
			reply(string(payload))
		})
	}
	h.SendUDP(dst, shellPort, srcPort, []byte(cmd))
}
