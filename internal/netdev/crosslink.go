package netdev

import (
	"fmt"
	"math/rand"

	"scout/internal/msg"
	"scout/internal/sched"
	"scout/internal/sim"
)

// Cross-shard links. A cross link is the only simulated object that spans
// two shards of a sim.Cluster, so it is built to keep each shard's state
// strictly shard-owned: the link has two halves, one per side, and a half's
// medium state (serialization horizon, arrival watermark, fault stream,
// counters) is touched only by its own engine — the sending half at transmit
// time, the receiving half at delivery time. Frames travel between halves as
// Xport messages, which the cluster delivers at window barriers; the link's
// propagation Delay must therefore be at least the cluster lookahead.
//
// Restrictions compared to a shared single-shard Link, all enforced at
// construction or call time:
//
//   - point-to-point: exactly one device per side (broadcast means "the
//     peer", which keeps ARP working);
//   - no Jitter: jitter draws from the engine's shared-position Rand stream,
//     whose interleaving across objects depends on shard layout;
//   - no fault plans and no carrier control (SetDown/SetUp): both mutate
//     state that the two sides would race on mid-window. Base Loss is
//     allowed — each direction rolls it on its own derived stream.
type crossState struct {
	halves [2]*crossHalf
}

// crossHalf is one side's shard-confined view of the wire.
type crossHalf struct {
	eng *sim.Engine
	out *sim.Xport // posts deliveries to the peer's engine
	dev *Device    // the single device attached on this side

	busyUntil   sim.Time
	lastArrival sim.Time // per-direction FIFO watermark (this side sending)
	frand       *rand.Rand

	sent      int64
	dropped   int64
	delivered int64 // frames this side received
}

// NewCrossLink creates a point-to-point link whose side 0 lives on engine a
// and side 1 on engine b (both shards of c). xid is the link's cross-shard
// identity: the two directions register Xports 2*xid and 2*xid+1, so xids
// must be unique among cross links and below 2^62. Side 0 is the link's
// "home": NewDevice attaches there, so an appliance boots on a cross link
// exactly as on a local one, and the far host attaches with NewDeviceOn.
func NewCrossLink(c *sim.Cluster, xid int64, a, b *sim.Engine, cfg LinkConfig) *Link {
	if cfg.BitsPerSec <= 0 {
		cfg.BitsPerSec = 10_000_000
	}
	if cfg.Jitter > 0 {
		panic("netdev: cross links cannot jitter (layout-dependent randomness)")
	}
	if cfg.Delay < c.Lookahead() {
		panic(fmt.Sprintf("netdev: cross link delay %v below cluster lookahead %v", cfg.Delay, c.Lookahead()))
	}
	l := &Link{eng: a, cfg: cfg, devs: make(map[MAC]*Device)}
	l.cross = &crossState{halves: [2]*crossHalf{
		{eng: a, out: c.NewXport(2*xid, a, b), frand: a.DeriveRand(2 * xid)},
		{eng: b, out: c.NewXport(2*xid+1, b, a), frand: b.DeriveRand(2*xid + 1)},
	}}
	return l
}

// NewDeviceOn attaches a NIC to the given side of a cross link, identified
// by its engine. Each side carries exactly one device.
func NewDeviceOn(l *Link, addr MAC, cpu *sched.Sched, eng *sim.Engine) *Device {
	if l.cross == nil {
		if eng != l.eng {
			panic("netdev: NewDeviceOn engine does not match the link")
		}
		return NewDevice(l, addr, cpu)
	}
	// Prefer a free matching side: in a one-shard layout both halves share
	// the engine, and the second device must land on the far side.
	side := -1
	matched := false
	for i, h := range l.cross.halves {
		if h.eng == eng {
			matched = true
			if h.dev == nil {
				side = i
				break
			}
		}
	}
	if !matched {
		panic("netdev: NewDeviceOn engine is on neither side of the cross link")
	}
	if side < 0 {
		panic("netdev: cross links are point-to-point (one device per side)")
	}
	d := l.mustAttach(addr, cpu, eng, side)
	l.cross.halves[side].dev = d
	return d
}

// crossTransmit is transmit for cross links: serialize against the sending
// half's horizon on the sending half's clock, then ship the frame to the
// peer shard as an Xport message firing at the arrival time.
func (l *Link) crossTransmit(src *Device, dst MAC, m *msg.Msg) {
	h := l.cross.halves[src.side]
	h.sent++
	start := h.eng.Now()
	if h.busyUntil > start {
		start = h.busyUntil
	}
	ser := l.serialization(m.Len())
	h.busyUntil = start.Add(ser)
	m.TxStart, m.TxEnd = int64(start), int64(h.busyUntil)
	if l.cfg.Loss > 0 && h.frand.Float64() < l.cfg.Loss {
		h.dropped++
		m.Free()
		return
	}
	arrive := h.busyUntil.Add(l.cfg.Delay)
	// The wire never reorders: a direction's frames arrive in transmit order.
	if arrive < h.lastArrival {
		arrive = h.lastArrival
	}
	h.lastArrival = arrive
	peer := l.cross.halves[1-src.side]
	h.out.Post(arrive, func() { l.crossDeliver(peer, dst, m) })
}

// crossDeliver runs on the receiving half's engine. A direction's arrivals
// never coincide (no jitter, non-zero serialization), so each frame is a
// burst of one, flushed at once; the link's shared hit list stays untouched.
func (l *Link) crossDeliver(h *crossHalf, dst MAC, m *msg.Msg) {
	d := h.dev
	if d == nil || (dst != Broadcast && dst != d.Addr) {
		m.Free()
		return
	}
	h.delivered++
	d.receive(m)
	d.flush()
}
