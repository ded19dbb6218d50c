package tcp

import (
	"errors"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/proto/ip"
	"scout/internal/sim"
)

// conn is the per-path TCP state machine.
type conn struct {
	impl  *Impl
	stage *core.Stage
	out   *core.NetIface

	lport     uint16
	remote    inet.Participants
	hasRemote bool
	passive   bool

	state   state
	sndUna  uint32 // oldest unacknowledged
	sndNxt  uint32 // next to send
	rcvNxt  uint32 // next expected
	peerWin int

	sendBuf      []byte // accepted from above, not yet segmented
	closePending bool
	finSent      bool
	finSeq       uint32

	rtxQ    []segment // sent, unacknowledged
	rtxEv   sim.Event // owner-held; armed while rtxQ is non-empty
	retries int

	registered bool
}

type segment struct {
	seq   uint32
	data  []byte
	flags uint16
}

func (c *conn) key() exactKey {
	return exactKey{lport: c.lport, raddr: c.remote.RemoteAddr, rport: c.remote.RemotePort}
}

// establish runs at path-creation phase 3.
func (c *conn) establish() error {
	t := c.impl
	if !c.hasRemote {
		// Listening path.
		if _, dup := t.listen[c.lport]; dup {
			return errors.New("tcp: port already listening")
		}
		t.listen[c.lport] = c.stage.Path
		c.state = stListen
		c.registered = true
		return nil
	}
	if _, dup := t.exact[c.key()]; dup {
		return errors.New("tcp: connection already exists")
	}
	t.exact[c.key()] = c.stage.Path
	c.registered = true
	t.isn += 64000
	c.sndUna = t.isn
	c.sndNxt = t.isn
	c.peerWin = t.Window
	if c.passive {
		// Answer the SYN that created this path.
		c.state = stSynRcvd
		c.sendFlags(FlagSYN|FlagACK, nil)
		c.sndNxt++
		t.stats.Accepted++
	} else {
		c.state = stSynSent
		c.sendFlags(FlagSYN, nil)
		c.sndNxt++
	}
	return nil
}

func (c *conn) teardown() {
	t := c.impl
	if !c.registered {
		return
	}
	if c.hasRemote {
		delete(t.exact, c.key())
	} else {
		delete(t.listen, c.lport)
	}
	c.registered = false
	c.rtxEv.Cancel()
}

// --- sending ---

// sendFlags emits a control segment (and queues it for retransmission when
// it consumes sequence space).
func (c *conn) sendFlags(flags uint16, payload []byte) {
	seg := segment{seq: c.sndNxt, data: payload, flags: flags}
	c.transmit(seg)
	if flags&(FlagSYN|FlagFIN) != 0 || len(payload) > 0 {
		c.rtxQ = append(c.rtxQ, seg)
		c.armRtx()
	}
}

// transmit puts one segment on the wire.
func (c *conn) transmit(seg segment) {
	t := c.impl
	p := c.stage.Path
	m := msg.NewWithHeadroom(eth.HeaderLen+ip.HeaderLen+HeaderLen+8, len(seg.data))
	copy(m.Bytes(), seg.data)
	h := Header{
		SrcPort: c.lport,
		DstPort: c.remote.RemotePort,
		Seq:     seg.seq,
		Ack:     c.rcvNxt,
		Flags:   seg.flags | FlagACK,
		Win:     uint16(min(t.Window, 0xffff)),
	}
	if seg.flags&FlagSYN != 0 && c.state == stSynSent {
		h.Flags &^= FlagACK // the very first SYN acknowledges nothing
	}
	h.Put(m.Push(HeaderLen))
	ck := inet.ChecksumPseudo(t.ipImpl.Addr(), c.remote.RemoteAddr, inet.ProtoTCP, m.Bytes())
	b := m.Bytes()
	b[16], b[17] = byte(ck>>8), byte(ck)
	p.ChargeExec(t.PerSegCost + time.Duration(len(seg.data))*t.CostPerByte)
	t.stats.SegsOut++
	if err := c.out.DeliverNext(m); err != nil {
		// The IP stage frees the message on its error paths.
		_ = err
	}
}

// pump sends as much buffered data as the window allows, then FIN if a
// close is pending.
func (c *conn) pump() {
	t := c.impl
	if c.state != stEstablished && c.state != stCloseWait {
		return
	}
	wnd := min(c.peerWin, t.Window)
	for len(c.sendBuf) > 0 && int(c.sndNxt-c.sndUna) < wnd {
		n := min(t.MSS, len(c.sendBuf))
		if room := wnd - int(c.sndNxt-c.sndUna); n > room {
			n = room
		}
		if n <= 0 {
			break
		}
		data := append([]byte(nil), c.sendBuf[:n]...)
		c.sendBuf = c.sendBuf[n:]
		seg := segment{seq: c.sndNxt, data: data, flags: FlagPSH}
		c.sndNxt += uint32(n)
		c.rtxQ = append(c.rtxQ, seg)
		c.transmit(seg)
	}
	c.armRtx()
	if c.closePending && len(c.sendBuf) == 0 && !c.finSent {
		c.finSent = true
		c.finSeq = c.sndNxt
		c.sendFlags(FlagFIN, nil)
		c.sndNxt++
		if c.state == stCloseWait {
			c.state = stLastAck
		} else {
			c.state = stFinWait1
		}
	}
}

func (c *conn) armRtx() {
	if len(c.rtxQ) == 0 {
		c.rtxEv.Cancel()
		return
	}
	if c.rtxEv.Queued() {
		return // already armed for the oldest outstanding segment
	}
	t := c.impl
	t.eng.Rearm(&c.rtxEv, t.eng.Now().Add(t.RTO), c.onRtxTimeout)
}

// onRtxTimeout retransmits everything outstanding (go-back-N).
func (c *conn) onRtxTimeout() {
	t := c.impl
	if len(c.rtxQ) == 0 || c.state == stClosed {
		return
	}
	c.retries++
	if c.retries > t.MaxRetries {
		c.reset()
		return
	}
	t.stats.Retransmits += int64(len(c.rtxQ))
	// Retransmission happens in "interrupt" context: charge the CPU.
	segs := append([]segment(nil), c.rtxQ...)
	t.cpu.Interrupt(time.Duration(len(segs))*t.PerSegCost, func() {
		for _, s := range segs {
			c.transmit(s)
		}
	})
	c.stage.Path.TakeExecCost()
	c.armRtx()
}

func (c *conn) reset() {
	c.sendFlags(FlagRST, nil)
	c.impl.stats.Resets++
	c.becomeClosed()
}

func (c *conn) becomeClosed() {
	c.state = stClosed
	c.rtxQ = nil
	c.rtxEv.Cancel()
	c.notify(EventClosed)
}

// notify sends an event message up the path.
func (c *conn) notify(ev Event) {
	bwd, ok := c.stage.End[core.BWD].(*core.NetIface)
	if !ok {
		return
	}
	m := msg.New(nil)
	m.Tag = ev
	if err := bwd.DeliverNext(m); err != nil {
		m.Free()
	}
}

// deliverUp passes payload bytes to the router above.
func (c *conn) deliverUp(m *msg.Msg) {
	bwd, ok := c.stage.End[core.BWD].(*core.NetIface)
	if !ok {
		m.Free()
		return
	}
	if err := bwd.DeliverNext(m); err != nil {
		m.Free()
	}
}

// --- the two path interfaces ---

// output accepts stream data (or a close event) from the router above.
func (c *conn) output(i *core.NetIface, m *msg.Msg) error {
	if m.Tag == EventClose {
		m.Free()
		c.closePending = true
		c.pump()
		return nil
	}
	c.sendBuf = append(c.sendBuf, m.Bytes()...)
	m.Free()
	c.pump()
	return nil
}

// input processes one inbound segment (message positioned at the TCP
// header).
func (c *conn) input(i *core.NetIface, m *msg.Msg) error {
	t := c.impl
	p := i.Path()
	p.ChargeExec(t.PerSegCost)
	full := m.Bytes()
	p.ChargeExec(time.Duration(len(full)) * t.CostPerByte)
	var src inet.Addr
	if a, _, ok := m.NetSrc(); ok { // stamped by the IP stage
		src = inet.Addr(a)
	} else {
		src, _ = m.Tag.(inet.Addr)
	}
	if inet.ChecksumPseudo(src, t.ipImpl.Addr(), inet.ProtoTCP, full) != 0 {
		t.stats.BadChecksum++
		m.Free()
		return errors.New("tcp: bad checksum")
	}
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
	t.stats.SegsIn++

	if c.state == stListen {
		c.listenInput(h, src, m)
		return nil
	}
	c.connInput(h, m)
	return nil
}

// listenInput accepts a SYN by creating a fresh connection path — runtime
// path creation, exactly as §3.3 describes SHELL doing for video.
func (c *conn) listenInput(h Header, src inet.Addr, m *msg.Msg) {
	defer m.Free()
	t := c.impl
	if h.Flags&FlagSYN == 0 || h.Flags&FlagACK != 0 {
		return // stray segment to a listening port
	}
	key := exactKey{lport: c.lport, raddr: src, rport: h.SrcPort}
	if _, exists := t.exact[key]; exists {
		return // retransmitted SYN; the connection path will handle it
	}
	top := c.stage.Path.End[0].Router
	a := c.stage.Path.Attrs.Clone().
		Set(attr.ListenChild, true).
		Set(AttrPassive, true).
		Set(AttrRemoteSeq, int(h.Seq)).
		Set(inet.AttrLocalPort, int(c.lport))
	a.Set(attr.NetParticipants, inet.Participants{RemoteAddr: src, RemotePort: h.SrcPort})
	if _, err := t.router.Graph.CreatePath(top, a); err != nil {
		t.stats.Resets++
	}
}

// connInput runs the connection state machine for one segment.
func (c *conn) connInput(h Header, m *msg.Msg) {
	defer m.Free()
	if h.Flags&FlagRST != 0 {
		c.becomeClosed()
		return
	}
	c.peerWin = int(h.Win)

	// ACK processing.
	if h.Flags&FlagACK != 0 && seqLEQ(c.sndUna, h.Ack) && seqLEQ(h.Ack, c.sndNxt) {
		if h.Ack != c.sndUna {
			c.sndUna = h.Ack
			c.retries = 0
			// Drop fully acknowledged segments.
			keep := c.rtxQ[:0]
			for _, s := range c.rtxQ {
				end := s.seq + uint32(len(s.data))
				if s.flags&(FlagSYN|FlagFIN) != 0 {
					end++
				}
				if !seqLEQ(end, h.Ack) {
					keep = append(keep, s)
				}
			}
			c.rtxQ = keep
			c.rtxEv.Cancel()
			c.armRtx()
		}
	}

	switch c.state {
	case stSynSent:
		if h.Flags&FlagSYN != 0 {
			c.rcvNxt = h.Seq + 1
			c.state = stEstablished
			c.sendFlags(0, nil) // pure ACK completes the handshake
			c.notify(EventEstablished)
			c.pump()
		}
		return
	case stSynRcvd:
		if h.Flags&FlagACK != 0 && h.Ack == c.sndNxt {
			c.state = stEstablished
			c.notify(EventEstablished)
		}
	}

	// Data.
	payload := m.Bytes()
	if len(payload) > 0 {
		switch {
		case h.Seq == c.rcvNxt:
			c.rcvNxt += uint32(len(payload))
			c.sendFlags(0, nil) // ack
			c.deliverUp(m.Clone())
		default:
			// Duplicate or out of order: re-ack, force go-back-N.
			c.sendFlags(0, nil)
		}
	}

	// FIN.
	if h.Flags&FlagFIN != 0 && h.Seq+uint32(len(payload)) == c.rcvNxt {
		c.rcvNxt++
		c.sendFlags(0, nil)
		switch c.state {
		case stEstablished:
			c.state = stCloseWait
			c.notify(EventRemoteClosed)
		case stFinWait1, stFinWait2:
			c.becomeClosed()
			return
		}
	}

	// Our FIN acknowledged?
	if c.finSent && seqLEQ(c.finSeq+1, c.sndUna) {
		switch c.state {
		case stFinWait1:
			c.state = stFinWait2
		case stLastAck:
			c.becomeClosed()
			return
		}
	}

	if c.state == stEstablished || c.state == stCloseWait {
		c.pump()
	}
}

// seqLEQ compares sequence numbers with wraparound.
func seqLEQ(a, b uint32) bool { return int32(b-a) >= 0 }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
