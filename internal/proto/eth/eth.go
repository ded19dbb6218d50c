// Package eth implements the ETH router: the Ethernet driver at the bottom
// of the router graph (Figures 3, 6 and 9 of the paper). Its receive
// interrupt runs the packet classifier so that arriving frames are placed in
// the correct per-path input queue immediately — the early separation that
// §4.3 identifies as one of the most significant advantages of paths.
package eth

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/netdev"
	"scout/internal/proto/inet"
)

// HeaderLen is the length of an Ethernet header.
const HeaderLen = 14

// Header is an Ethernet frame header.
type Header struct {
	Dst, Src netdev.MAC
	Type     uint16
}

// Put writes the header into b, which must be at least HeaderLen bytes.
func (h Header) Put(b []byte) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.Type)
}

// Parse reads a header from the front of b.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, errors.New("eth: short frame")
	}
	var h Header
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.Type = binary.BigEndian.Uint16(b[12:14])
	return h, nil
}

// Stats counts classifier and driver behaviour.
type Stats struct {
	RxFrames    int64
	RxNoPath    int64 // classifier found no path: frame discarded
	RxQueueFull int64 // path input queue full: early discard
	TxFrames    int64
	BurstShared int64 // frames resolved by in-burst sharing (no cache lookup)
}

// DefaultFlowCacheCap is the flow-cache bound used when FlowCacheCap is 0.
const DefaultFlowCacheCap = 256

// Impl is the ETH router implementation. One instance drives one netdev
// device.
type Impl struct {
	dev    *netdev.Device
	router *core.Router

	// PerFrameCost is the protocol processing cost charged to a path
	// execution when its ETH stage handles a frame.
	PerFrameCost time.Duration

	// FlowCacheCap bounds the device-edge flow cache created at Init:
	// 0 selects DefaultFlowCacheCap, negative disables the cache (every
	// frame then pays the full demux walk). Set before graph Build.
	FlowCacheCap int

	byType map[uint16]func(m *msg.Msg) (*core.Path, error)
	stats  Stats
}

// New returns an ETH router driving dev.
func New(dev *netdev.Device) *Impl {
	return &Impl{dev: dev, byType: make(map[uint16]func(*msg.Msg) (*core.Path, error)), PerFrameCost: time.Microsecond}
}

// Services declares a single "up" service that any number of network
// protocols connect to (IP and ARP in Figure 6).
func (e *Impl) Services() []core.ServiceSpec {
	return []core.ServiceSpec{{Name: "up", Type: core.NetServiceType}}
}

// Init installs the receive classifier on the device and creates the
// device-edge flow cache (unless FlowCacheCap is negative), registering it
// with the graph so control-plane changes invalidate it.
func (e *Impl) Init(r *core.Router) error {
	e.router = r
	e.dev.OnReceiveBurst = e.receiveBurst
	if e.FlowCacheCap >= 0 {
		cap := e.FlowCacheCap
		if cap == 0 {
			cap = DefaultFlowCacheCap
		}
		e.dev.Flows = core.NewFlowCache(cap)
		r.Graph.RegisterFlowCache(e.dev.Flows)
	}
	return nil
}

// Router returns the core router this implementation backs (valid after
// graph build).
func (e *Impl) Router() *core.Router { return e.router }

// Device returns the NIC this router drives.
func (e *Impl) Device() *netdev.Device { return e.dev }

// MAC returns the device's hardware address.
func (e *Impl) MAC() netdev.MAC { return e.dev.Addr }

// BindType registers the classifier continuation for an Ethernet type;
// upper routers (IP, ARP) call this from their Init. The continuation
// receives the frame with the Ethernet header already stripped.
//
// These continuations are the paper's demux operation (§3.5): a router that
// cannot decide alone strips its header and asks the router above, through
// the continuation bound to the field it just read, to refine the decision
// (IP binds the same way by protocol, UDP and TCP end the chain at their port
// tables). A continuation must leave the message as it found it, so the
// classified path sees the full frame.
func (e *Impl) BindType(etherType uint16, demux func(m *msg.Msg) (*core.Path, error)) error {
	if _, dup := e.byType[etherType]; dup {
		return fmt.Errorf("eth: ether type %#04x bound twice", etherType)
	}
	e.byType[etherType] = demux
	return nil
}

// Stats returns a snapshot of driver counters.
func (e *Impl) Stats() Stats { return e.stats }

// Classify maps a raw frame to a path. It leaves the message untouched
// (headers are popped during classification and pushed back afterwards, so
// the path's execution sees the whole frame).
//
// Frames whose flow fingerprint is extractable consult the device-edge flow
// cache first: a hit short-circuits the whole router chain in O(1); a miss
// runs the full walk and records the result. Ineligible frames (ARP,
// fragments, non-UDP, failed header checksum, ...) always take the full
// walk and are never cached.
func (e *Impl) Classify(m *msg.Msg) (*core.Path, error) {
	if fc := e.dev.Flows; fc != nil {
		if key, ok := netdev.FlowKeyOf(e.dev.Addr, m.Bytes()); ok {
			return e.classifyKeyed(fc, key, m)
		}
	}
	return e.ClassifyUncached(m)
}

// classifyKeyed resolves a frame whose fingerprint is key: cache hit, or
// full walk recording the result.
func (e *Impl) classifyKeyed(fc *core.FlowCache, key core.FlowKey, m *msg.Msg) (*core.Path, error) {
	if p, hit := fc.Lookup(key); hit {
		return p, nil
	}
	p, err := e.ClassifyUncached(m)
	if err == nil {
		fc.Insert(key, p)
	}
	return p, err
}

// burstMemo carries the most recent successful resolution across the frames
// of one burst, so a run of same-flow frames pays one cache lookup. The memo
// lives outside the flow cache, so it must revalidate against the cache's
// invalidation generation on every use: delivering a frame can dispatch a
// thread synchronously (queue wake → scheduler), and that thread can run
// control-plane code — destroy a path, rebind a UDP port, learn an ARP entry
// — between two frames of the same burst. Every such event funnels through a
// cache invalidation, so "generation unchanged" proves the memoized binding
// is still exactly what classifying the frame from scratch would produce.
type burstMemo struct {
	valid bool
	sig   netdev.FlowSig
	path  *core.Path
	gen   uint64
}

// classifyMemo resolves one frame of a burst through the memo. The hit path
// is a signature compare — five word compares, one checksum fold and one
// generation check instead of a full key extraction — and SameFlow matching
// strictly implies key equality, so the decision is the one Classify would
// make. The miss path lives in resolveMemo so this call — once per frame in
// the two burst loops, the wall-clock burst budget (BenchmarkE2_Demux_Burst)
// — stays small.
func (e *Impl) classifyMemo(bm *burstMemo, m *msg.Msg) (*core.Path, error) {
	if bm.valid && netdev.SameFlow(bm.sig, m.Bytes()) && e.dev.Flows.Gen() == bm.gen {
		e.stats.BurstShared++
		return bm.path, nil
	}
	return e.resolveMemo(bm, m)
}

// resolveMemo is the memo's miss path: classify as Classify would and
// remember the outcome. Ineligible frames (no extractable fingerprint) take
// the full walk and leave the memo untouched. Errors are never memoized,
// mirroring the cache's errors-are-never-cached rule: a control-plane change
// between frames can turn a no-path frame into a classifiable one (never the
// reverse without an invalidation).
func (e *Impl) resolveMemo(bm *burstMemo, m *msg.Msg) (*core.Path, error) {
	fc := e.dev.Flows
	if fc == nil {
		return e.ClassifyUncached(m)
	}
	key, ok := netdev.FlowKeyOf(e.dev.Addr, m.Bytes())
	if !ok {
		return e.ClassifyUncached(m)
	}
	p, err := e.classifyKeyed(fc, key, m)
	if err == nil {
		*bm = burstMemo{valid: true, sig: netdev.SigOf(m.Bytes()), path: p, gen: fc.Gen()}
	} else {
		bm.valid = false
	}
	return p, err
}

// BurstClass is one frame's classification outcome within a burst.
type BurstClass struct {
	Path *core.Path
	Err  error
}

// ClassifyBurst classifies every frame of a burst in one pass, appending the
// outcomes to out (pass out[:0] to reuse a scratch slice). Consecutive
// same-flow frames share a single cache lookup through the burst memo; the
// decisions are frame-for-frame identical to calling Classify on each. The
// results are valid within the current event only — control-plane changes
// invalidate cached bindings, not returned values.
func (e *Impl) ClassifyBurst(frames []*msg.Msg, out []BurstClass) []BurstClass {
	var bm burstMemo
	for _, m := range frames {
		p, err := e.classifyMemo(&bm, m)
		out = append(out, BurstClass{Path: p, Err: err})
	}
	return out
}

// receiveBurst runs in interrupt context: classify each frame of the burst
// and place it on the right path's input queue, or discard it — in arrival
// order, interleaved. Interleaving (rather than classify-all-then-deliver-
// all) is what makes a burst outcome-identical to its frames arriving one
// by one: delivery can dispatch control-plane work synchronously, and the
// next frame must see its effects — the burst memo's generation check
// handles exactly that. Runs of same-path frames also share one input-queue
// resolution; the queue's own hooks still fire per frame, so trace spans
// nest per frame.
func (e *Impl) receiveBurst(frames []*msg.Msg) {
	var bm burstMemo
	var lastPath *core.Path
	var lastQ *core.Queue
	for _, m := range frames {
		e.stats.RxFrames++
		p, err := e.classifyMemo(&bm, m)
		if err != nil {
			e.stats.RxNoPath++
			if errors.Is(err, core.ErrNoPath) {
				e.dev.NoteNoPath()
			}
			m.Free()
			continue
		}
		if p.EarlyDiscard != nil && p.EarlyDiscard(m) {
			p.EarlyDiscards++
			m.Free()
			continue
		}
		if p != lastPath {
			lastPath = p
			lastQ = p.IncomingQueue(e.router.Name)
		}
		if lastQ == nil || !lastQ.Enqueue(m) {
			e.stats.RxQueueFull++
			m.Free()
		}
	}
}

// ClassifyUncached runs the full hop-by-hop classification walk, bypassing
// (and never populating) the flow cache. The differential fast-path tests
// and the cold-miss benchmark use it as the reference classifier.
func (e *Impl) ClassifyUncached(m *msg.Msg) (*core.Path, error) {
	hdr, err := m.Peek(HeaderLen)
	if err != nil {
		return nil, err
	}
	h, err := Parse(hdr)
	if err != nil {
		return nil, err
	}
	if h.Dst != e.dev.Addr && h.Dst != netdev.Broadcast {
		return nil, core.ErrNoPath // not for us (promiscuous traffic)
	}
	next, ok := e.byType[h.Type]
	if !ok {
		return nil, core.ErrNoPath
	}
	if _, err := m.Pop(HeaderLen); err != nil {
		return nil, err
	}
	p, err := next(m)
	m.Push(HeaderLen) // restore the view; bytes are untouched
	return p, err
}

// stageData holds the per-path state of an ETH stage.
type stageData struct {
	impl *Impl
}

// CreateStage contributes the ETH (leaf) stage of a path. Outbound messages
// get an Ethernet header whose destination comes from the per-message Tag
// (a netdev.MAC, for ARP and broadcast traffic) or from the path's
// AttrEthDst attribute (set by IP once resolution completes); the Ethernet
// type comes from PA_PROTID as refined by the router above (§4.1).
func (e *Impl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	s := &core.Stage{Data: &stageData{impl: e}}
	etherType, _ := a.Int(attr.ProtID)

	// Outbound (toward the wire). A path created on a device router top
	// down reaches ETH last, so "toward the wire" is FWD; paths created
	// bottom up are not supported by this driver.
	out := core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		p := i.Path()
		p.ChargeExec(e.PerFrameCost)
		var dst netdev.MAC
		if d, have := m.LinkDst(); have {
			dst = d
		} else if d, ok := m.Tag.(netdev.MAC); ok {
			dst = d
		} else {
			v, have := p.Attrs.Get(inet.AttrEthDst)
			if !have {
				m.Free()
				return errors.New("eth: no destination MAC for outbound frame")
			}
			dst = v.(netdev.MAC)
		}
		h := Header{Dst: dst, Src: e.dev.Addr, Type: uint16(etherType)}
		h.Put(m.Push(HeaderLen))
		e.stats.TxFrames++
		e.dev.Transmit(dst, m)
		return nil
	})

	// Inbound (from the wire): strip the header and continue up the path.
	in := core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error {
		i.Path().ChargeExec(e.PerFrameCost)
		hdr, err := m.Pop(HeaderLen)
		if err != nil {
			m.Free()
			return err
		}
		if _, err := Parse(hdr); err != nil {
			m.Free()
			return err
		}
		return i.DeliverNext(m)
	})

	s.SetIface(core.FWD, out)
	s.SetIface(core.BWD, in)
	// Fusion: the inbound re-Parse after a successful Pop is provably
	// redundant (Parse only fails on frames shorter than HeaderLen, which
	// Pop already rejects), so the fused inbound is pop-and-go with the
	// identical charge and error behaviour.
	s.Fuse = func(st *core.Stage) {
		in.Deliver = func(i *core.NetIface, m *msg.Msg) error {
			i.Path().ChargeExec(e.PerFrameCost)
			if _, err := m.Pop(HeaderLen); err != nil {
				m.Free()
				return err
			}
			return i.DeliverNext(m)
		}
	}
	return s, nil, nil // leaf router: path creation ends here
}
