package ip

import (
	"errors"
	"sort"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/proto/eth"
	"scout/internal/proto/inet"
	"scout/internal/sim"
)

// The reassembly path is the paper's canonical short/fat path: wide enough
// to accept any fragmented IP datagram, short (IP→ETH), and scheduled like
// ordinary background work. Traditional classifiers defer classification
// until reassembly completes; Scout's relaxed accuracy instead hands
// fragments to this path and re-runs the classifier on the whole datagram
// (§3.5).

type reasmKey struct {
	src   inet.Addr
	id    uint16
	proto uint8
}

type fragPiece struct {
	off  int
	data []byte
}

type reasmEntry struct {
	pieces   []fragPiece
	bytes    int // buffered payload bytes across pieces
	gotLast  bool
	totalLen int
	timer    sim.Event // owner-held expiry
}

// createReasmStage builds the IP stage of the reassembly path.
func (p *Impl) createReasmStage(r *core.Router, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	s := &core.Stage{}
	s.SetIface(core.BWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		i.Path().ChargeExec(p.PerPacketCost)
		p.acceptFragment(m)
		return nil
	}))
	s.SetIface(core.FWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		return i.DeliverNext(m) // never used; receive-only path
	}))
	a.Set(attr.ProtID, inet.EtherTypeIP)
	// The reassembly path descends to the first down link; fragments from
	// any NIC land here via that link's classifier, and the rebuilt datagram
	// re-enters classification through the same ETH (see redeliver).
	downs := r.LinksOf("down")
	if len(downs) == 0 {
		return nil, nil, errors.New("ip: no down link")
	}
	down := downs[0]
	return s, &core.NextHop{Router: down.Peer, Service: down.PeerService}, nil
}

// acceptFragment records one fragment (the message view starts at its IP
// header) and, when the datagram is complete, rebuilds it and re-runs the
// classifier.
func (p *Impl) acceptFragment(m *msg.Msg) {
	defer m.Free()
	raw, err := m.Pop(HeaderLen)
	if err != nil {
		p.stats.BadHeader++
		return
	}
	h, err := Parse(raw)
	if err != nil {
		p.stats.BadHeader++
		return
	}
	if payload := int(h.TotalLen) - HeaderLen; payload < m.Len() {
		if err := m.Truncate(payload); err != nil {
			return
		}
	}
	key := reasmKey{src: h.Src, id: h.ID, proto: h.Proto}
	e := p.reasm[key]
	if e == nil {
		e = &reasmEntry{}
		p.reasm[key] = e
		eng := p.cpu.Engine()
		eng.Rearm(&e.timer, eng.Now().Add(p.ReasmTimeout), func() {
			if p.reasm[key] == e {
				delete(p.reasm, key)
				p.stats.ReasmTimeouts++
			}
		})
	}
	// Drop exact duplicates: a retransmitted or link-duplicated fragment
	// already covered by an equal-or-longer piece at the same offset adds
	// nothing and, unchecked, grows the entry without bound.
	for _, f := range e.pieces {
		if f.off == h.FragOff && len(f.data) >= m.Len() {
			p.stats.ReasmDupDrops++
			return
		}
	}
	e.pieces = append(e.pieces, fragPiece{off: h.FragOff, data: m.CopyOut()})
	e.bytes += m.Len()
	if len(e.pieces) > p.ReasmMaxPieces || e.bytes > p.ReasmMaxBytes {
		delete(p.reasm, key)
		e.timer.Cancel()
		p.stats.ReasmOverflows++
		return
	}
	if !h.MF {
		e.gotLast = true
		e.totalLen = h.FragOff + m.Len()
	}
	if !e.complete() {
		return
	}
	delete(p.reasm, key)
	e.timer.Cancel()
	p.stats.Reassembled++
	p.redeliver(h, e)
}

// complete reports whether the fragments cover [0, totalLen) contiguously.
func (e *reasmEntry) complete() bool {
	if !e.gotLast {
		return false
	}
	sort.Slice(e.pieces, func(i, j int) bool { return e.pieces[i].off < e.pieces[j].off })
	next := 0
	for _, f := range e.pieces {
		if f.off > next {
			return false
		}
		if end := f.off + len(f.data); end > next {
			next = end
		}
	}
	return next >= e.totalLen
}

// redeliver rebuilds the whole datagram as a frame and re-runs the
// classifier, then enqueues it on the path it belongs to.
func (p *Impl) redeliver(h Header, e *reasmEntry) {
	full := msg.NewWithHeadroom(0, eth.HeaderLen+HeaderLen+e.totalLen)
	b := full.Bytes()
	fh := eth.Header{Dst: p.ethImpl.MAC(), Type: inet.EtherTypeIP}
	fh.Put(b[0:eth.HeaderLen])
	nh := h
	nh.MF = false
	nh.FragOff = 0
	nh.TotalLen = uint16(HeaderLen + e.totalLen)
	nh.Put(b[eth.HeaderLen : eth.HeaderLen+HeaderLen])
	payload := b[eth.HeaderLen+HeaderLen:]
	for _, f := range e.pieces {
		copy(payload[f.off:], f.data)
	}
	path, err := p.ethImpl.Classify(full)
	if err != nil {
		full.Free()
		return
	}
	if !path.EnqueueIncoming(p.ethImpl.Router().Name, full) {
		full.Free()
	}
}
