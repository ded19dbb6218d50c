package core

import (
	"errors"

	"scout/internal/msg"
)

// NetIfaceType is the root interface type for asynchronous message exchange
// — the paper's "net" interface, used both by filters and by networking
// protocols (§3.1).
var NetIfaceType = NewIfaceType("net", nil)

// NetServiceType is the symmetric service type
//
//	servicetype net = <NetIface, NetIface>;
var NetServiceType = &ServiceType{Name: "net", Provides: NetIfaceType, Requires: NetIfaceType}

// ErrEndOfPath is returned when a message is delivered past the last
// interface of a path; well-formed end stages terminate delivery by
// enqueueing instead.
var ErrEndOfPath = errors.New("core: delivered past end of path")

// NetIface is the paper's NetIface: a base interface plus a single deliver
// function. The function pointer is deliberately a mutable field —
// transformation rules optimize a path precisely by replacing these pointers
// with fused or specialized implementations (§3.3).
type NetIface struct {
	BaseIface
	// Deliver processes message m at this interface. It runs the stage's
	// share of the path function and usually ends by calling
	// DeliverNext.
	Deliver func(i *NetIface, m *msg.Msg) error

	// fastNext/fastBack are set by the fusion phase of CreatePath: they cache
	// the already-type-asserted neighbouring NetIface so steady-state
	// delivery skips the per-hop dynamic dispatch (interface type assertion
	// and nil checks). The Deliver pointer itself is still read at call time,
	// so the wrappers Path.Interpose installs after fusion compose
	// transparently with the fused chain.
	fastNext, fastBack *NetIface
}

// NewNetIface returns a NetIface with the given deliver function.
func NewNetIface(deliver func(i *NetIface, m *msg.Msg) error) *NetIface {
	return &NetIface{Deliver: deliver}
}

// DeliverNext passes m to the next interface in this interface's direction.
func (i *NetIface) DeliverNext(m *msg.Msg) error {
	if n := i.fastNext; n != nil {
		return n.Deliver(n, m)
	}
	nx := i.Next
	if nx == nil {
		return ErrEndOfPath
	}
	ni, ok := nx.(*NetIface)
	if !ok {
		return errors.New("core: next interface is not a NetIface")
	}
	if ni.Deliver == nil {
		return errors.New("core: next interface has no deliver function")
	}
	return ni.Deliver(ni, m)
}

// DeliverBack turns m around: it passes it to the next interface in the
// opposite direction (§2.4.1 — piggy-backed acknowledgments and the like).
func (i *NetIface) DeliverBack(m *msg.Msg) error {
	if b := i.fastBack; b != nil {
		return b.Deliver(b, m)
	}
	bk := i.Back
	if bk == nil {
		return ErrEndOfPath
	}
	ni, ok := bk.(*NetIface)
	if !ok {
		return errors.New("core: back interface is not a NetIface")
	}
	if ni.Deliver == nil {
		return errors.New("core: back interface has no deliver function")
	}
	return ni.Deliver(ni, m)
}

// Inject starts a traversal of p in direction d: it delivers m to the
// interface of the first stage in that direction. Routers servicing a path's
// input queue use this as the generic "evaluate g(m)" entry point (§2.1).
func (p *Path) Inject(d Direction, m *msg.Msg) error {
	if p.dead {
		return ErrPathDead
	}
	var first *Stage
	if d == FWD {
		first = p.End[0]
	} else {
		first = p.End[1]
	}
	for first != nil {
		if iface := first.End[d]; iface != nil {
			ni, ok := iface.(*NetIface)
			if !ok {
				return errors.New("core: Inject requires NetIface stages")
			}
			if ni.Deliver == nil {
				return errors.New("core: first interface has no deliver function")
			}
			err := ni.Deliver(ni, m)
			if err == nil {
				p.Msgs[d]++
			}
			return err
		}
		// The extreme stage may be a pure queue-connector with no
		// interface in this direction; skip inward.
		first = p.nextStage(first, d)
	}
	return ErrEndOfPath
}

// nextStage returns the stage after s in direction d, or nil at the end.
func (p *Path) nextStage(s *Stage, d Direction) *Stage {
	for i, st := range p.stages {
		if st != s {
			continue
		}
		if d == FWD {
			if i+1 < len(p.stages) {
				return p.stages[i+1]
			}
		} else if i > 0 {
			return p.stages[i-1]
		}
		return nil
	}
	return nil
}
