// Package netdev simulates the Ethernet hardware under the Scout stack: a
// shared link with bandwidth, propagation delay, jitter and loss, and
// network devices whose receive side runs at "interrupt time" — the place
// where, per §4.3 of the paper, the packet classifier executes so that newly
// arriving packets are immediately placed in the correct per-path queue.
package netdev

import (
	"fmt"
	"math/rand"
	"time"

	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/sched"
	"scout/internal/sim"
)

// MAC is a 6-byte Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MTU is the Ethernet maximum transmission unit the simulation uses.
const MTU = 1500

// ethHeaderLen is the Ethernet header size. The fault layer needs it to
// locate the EtherType and payload of raw frames; proto/eth owns the real
// header codec (it imports this package, so it cannot be imported here).
const ethHeaderLen = 14

// LinkConfig describes a simulated shared link.
type LinkConfig struct {
	// ID distinguishes parallel links of one engine. Fault randomness (the
	// base Loss and every FaultPlan draw) comes from a per-link stream
	// derived from engine-seed and ID, so sibling links suffer uncorrelated
	// faults no matter how their transmissions interleave. Links that never
	// coexist can share an ID (the default 0).
	ID int
	// BitsPerSec is the link bandwidth; it determines frame serialization
	// time. Defaults to 10 Mb/s (the paper's era Ethernet) when zero.
	BitsPerSec int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the independent frame-drop probability in [0, 1).
	Loss float64
}

// Link is a shared-medium Ethernet segment.
type Link struct {
	eng   *sim.Engine
	cfg   LinkConfig
	devs  map[MAC]*Device
	order []*Device // insertion order, for deterministic broadcast

	busyUntil   sim.Time
	lastArrival sim.Time // monotone delivery watermark (per-link FIFO)
	faults      *faultState
	frand       *rand.Rand // per-link fault stream (engine seed ⊕ link ID)
	sent        int64
	dropped     int64
	delivered   int64

	// The wire is a FIFO — frame N+1 never overtakes frame N — so frames in
	// flight wait in one ring in arrival order and the engine holds one
	// event per distinct arrival instant, which hands every device its
	// frames of that instant as one burst.
	ring     []flight // power-of-two capacity
	head, n  int
	arriveFn func()    // l.arrive, bound once so scheduling allocates no closure
	hit      []*Device // devices holding frames since the last flush, first-arrival order

	down      bool
	downDrops int64

	// cross is set for cluster cross-shard links; see crosslink.go.
	cross *crossState
}

// NewLink creates a link on eng with the given configuration.
func NewLink(eng *sim.Engine, cfg LinkConfig) *Link {
	if cfg.BitsPerSec <= 0 {
		cfg.BitsPerSec = 10_000_000
	}
	l := &Link{eng: eng, cfg: cfg, devs: make(map[MAC]*Device), frand: eng.DeriveRand(int64(cfg.ID))}
	l.arriveFn = l.arrive
	return l
}

// flight is one frame on the wire.
type flight struct {
	src *Device
	dst MAC
	m   *msg.Msg
	at  sim.Time
}

// ID reports the link's configured identifier.
func (l *Link) ID() int { return l.cfg.ID }

// Stats reports (frames sent, frames dropped by loss, frames delivered).
// On a cross link it sums both halves, so call it only while the cluster is
// quiescent (between runs, or after the simulation ends).
func (l *Link) Stats() (sent, dropped, delivered int64) {
	if l.cross != nil {
		for _, h := range l.cross.halves {
			sent += h.sent
			dropped += h.dropped
			delivered += h.delivered
		}
		return sent, dropped, delivered
	}
	return l.sent, l.dropped, l.delivered
}

// SetDown administratively kills the link: every frame offered from now on
// is dropped at the transmitting NIC (no carrier, no airtime) and counted in
// DownDrops. Frames already serialized onto the wire still arrive — death
// cuts the carrier, it does not reach into flight.
func (l *Link) SetDown() {
	l.mustBeLocal("SetDown")
	l.down = true
}

// mustBeLocal rejects operations that mutate state both sides of a cross
// link would race on mid-window.
//
//scout:assert carrier/fault control on a cross link is a topology bug, not runtime input
func (l *Link) mustBeLocal(op string) {
	if l.cross != nil {
		panic("netdev: " + op + " on a cross-shard link (both sides would race on the shared state)")
	}
}

// SetUp restores the carrier and resets every attached device's tx-loss
// streak so the detector starts fresh.
func (l *Link) SetUp() {
	l.mustBeLocal("SetUp")
	l.down = false
	for _, d := range l.order {
		d.txLossStreak = 0
	}
}

// DownDrops reports how many frames were dropped because the link was
// administratively down.
func (l *Link) DownDrops() int64 { return l.downDrops }

// serialization returns the time the medium is occupied by a frame of n
// bytes.
func (l *Link) serialization(n int) time.Duration {
	return time.Duration(int64(n) * 8 * int64(time.Second) / l.cfg.BitsPerSec)
}

// transmit carries a frame from src to the device(s) addressed by dst. The
// shared medium serializes frames: a transmission begins when the medium is
// free.
func (l *Link) transmit(src *Device, dst MAC, m *msg.Msg) {
	if l.cross != nil {
		l.crossTransmit(src, dst, m)
		return
	}
	l.sent++
	if l.down {
		// No carrier: the frame dies at the NIC. The transmitting device's
		// failure detector counts the consecutive misses.
		l.downDrops++
		m.Free()
		if src != nil {
			src.noteTxLoss()
		}
		return
	}
	if src != nil {
		src.txLossStreak = 0
	}
	// The frame occupies the medium regardless of its fate: serialization
	// happens at the transmitting NIC, loss happens on the wire, so a lossy
	// link still carries the load of every frame it drops.
	start := l.eng.Now()
	if l.busyUntil > start {
		start = l.busyUntil
	}
	ser := l.serialization(m.Len())
	l.busyUntil = start.Add(ser)
	// Stamp the serialization window on the frame so the receiver's tracer
	// can emit a wire-occupancy span without the link keeping per-frame
	// state (same pattern as Msg.Arrival).
	m.TxStart, m.TxEnd = int64(start), int64(l.busyUntil)

	fs := l.matchFaults(src, dst, m)
	if l.lossRoll(fs) {
		l.dropped++
		m.Free()
		return
	}
	if fs != nil && fs.plan.Corrupt > 0 && l.frand.Float64() < fs.plan.Corrupt {
		corruptFrame(l.frand, m)
		fs.stats.Corrupted++
	}
	l.schedule(src, dst, m, l.busyUntil, fs)
	if fs != nil && fs.plan.Dup > 0 && l.frand.Float64() < fs.plan.Dup {
		fs.stats.Dupped++
		// The copy occupies the medium like any other frame.
		l.busyUntil = l.busyUntil.Add(ser)
		c := m.Clone()
		c.TxStart, c.TxEnd = int64(l.busyUntil.Add(-ser)), int64(l.busyUntil)
		l.schedule(src, dst, c, l.busyUntil, fs)
	}
}

// schedule queues the delivery of a frame whose serialization ends at txEnd.
func (l *Link) schedule(src *Device, dst MAC, m *msg.Msg, txEnd sim.Time, fs *faultState) {
	arrive := txEnd.Add(l.cfg.Delay)
	if l.cfg.Jitter > 0 {
		arrive = arrive.Add(time.Duration(l.eng.Rand().Int63n(int64(l.cfg.Jitter))))
	}
	if fs != nil && fs.plan.Reorder > 0 && l.frand.Float64() < fs.plan.Reorder {
		fs.stats.Reordered++
		// Deliberate reordering: hold the frame past its successors. Held
		// frames bypass the monotonicity clamp below and do not advance
		// the watermark.
		extra := 1 + l.frand.Int63n(int64(fs.plan.ReorderDelay))
		l.eng.At(arrive.Add(time.Duration(extra)), func() {
			l.deliver(src, dst, m)
			l.flush()
		})
		return
	}
	// A shared serial medium never reorders: jitter may stretch a frame's
	// flight time, but frame N+1 cannot overtake frame N.
	if arrive < l.lastArrival {
		arrive = l.lastArrival
	}
	// The batch is formed from the link's own transmit sequence only: a
	// frame joins the tail batch iff it lands on the tail's instant (the
	// watermark) and the tail has not fired (fired frames have left the
	// ring). Asking the engine what else is pending would make the event
	// count depend on what shares the shard.
	if l.n == 0 || arrive != l.lastArrival {
		l.eng.At(arrive, l.arriveFn)
	}
	l.lastArrival = arrive
	if l.n == len(l.ring) {
		grown := make([]flight, max(8, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = grown, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = flight{src: src, dst: dst, m: m, at: arrive}
	l.n++
}

// arrive is the link's one event per arrival instant: every frame due now
// leaves the wire, in transmit order, and each device it reached takes its
// share as one burst.
func (l *Link) arrive() {
	now := l.eng.Now()
	for l.n > 0 && l.ring[l.head].at <= now {
		f := l.ring[l.head]
		l.ring[l.head] = flight{}
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		l.deliver(f.src, f.dst, f.m)
	}
	l.flush()
}

// BusyUntil reports when the medium frees up — the serialization horizon,
// which advances for dropped frames too (tests observe the airtime of loss
// through it).
func (l *Link) BusyUntil() sim.Time { return l.busyUntil }

// deliver lands a frame on the device(s) addressed by dst. No handler runs
// here — the frames wait in each device's burst until flush — so a
// broadcast can clone as it goes.
func (l *Link) deliver(src *Device, dst MAC, m *msg.Msg) {
	if dst == Broadcast {
		taken := false
		for _, d := range l.order {
			switch {
			case d == src:
			case taken:
				l.land(d, m.Clone())
			default:
				taken = true
				l.land(d, m)
			}
		}
		if !taken { // nobody else on the wire
			m.Free()
		}
		return
	}
	if d, ok := l.devs[dst]; ok && d != src {
		l.land(d, m)
		return
	}
	m.Free()
}

func (l *Link) land(d *Device, m *msg.Msg) {
	l.delivered++
	if len(d.burst) == 0 {
		l.hit = append(l.hit, d)
	}
	d.receive(m)
}

// flush raises the receive interrupt on every device that took frames since
// the last flush, in first-arrival order.
func (l *Link) flush() {
	for i, d := range l.hit {
		l.hit[i] = nil
		d.flush()
	}
	l.hit = l.hit[:0]
}

// Device is a simulated NIC. The link hands it its frames of one arrival
// instant as a burst, and its receive side runs the handler over that burst
// from interrupt context; when a scheduler is attached the burst is one
// interrupt entry whose cost (RxIRQCost per frame) is stolen from the
// running thread, exactly like a real RX interrupt.
type Device struct {
	Addr MAC

	link *Link
	eng  *sim.Engine
	cpu  *sched.Sched

	// OnReceive handles one arriving frame at interrupt time; hosts and
	// other single-frame consumers install only this. With neither handler
	// set, frames are dropped.
	OnReceive func(m *msg.Msg)
	// OnReceiveBurst, when set, handles a whole burst in one call (frames
	// in arrival order) instead of OnReceive once per frame; the ETH router
	// installs the classifier here. The handler takes ownership of every
	// frame; the slice itself remains the device's and is reused for the
	// next burst, so it must not be retained.
	OnReceiveBurst func(frames []*msg.Msg)
	// RxIRQCost is the CPU cost charged per received frame (classifier
	// + buffer handling). The paper's unoptimized classifier demuxes a
	// UDP packet in under 5 µs (§3.6).
	RxIRQCost time.Duration
	// TxCost is the CPU cost charged (to the caller's context) per
	// transmitted frame.
	TxCost time.Duration

	// Flows is the device-edge flow cache (fingerprint → path). The ETH
	// router creates and owns it; it lives on the device because the cache
	// conceptually belongs to the NIC's classifier (§4.3: classification at
	// interrupt time) and because pathtrace samples it from here.
	Flows *core.FlowCache

	// OnLinkDown, when non-nil, is the failure detector's verdict callback:
	// it fires at most once, when either detector mode
	// concludes the device's link is dead — TxLossThreshold consecutive
	// carrier losses on transmit, or ArmSilence's receive-silence window
	// elapsing on the virtual clock. Both modes are deterministic: they
	// observe only the virtual clock and the frame stream, never wall time.
	OnLinkDown func()
	// TxLossThreshold arms carrier-sense detection: after this many
	// consecutive transmit-time carrier losses OnLinkDown fires. Zero
	// disables the mode.
	TxLossThreshold int

	txLossStreak int
	silence      time.Duration
	lastRx       sim.Time
	ldFired      bool
	silenceEv    sim.Event // the detector's one owner-held check
	silenceFn    func()    // d.checkSilence, bound once

	burst       []*msg.Msg // frames landed since the last flush
	bursts      int64      // bursts handled (receive interrupt entries)
	burstFrames int64      // frames those bursts carried

	rx, tx, rxDropped int64
	noPathDrops       int64

	// side is the device's half of a cross link (always 0 on local links).
	side int
}

// NoteNoPath counts a frame whose classification found no path; the driver
// discards such frames (§3.5) and before this counter did so silently.
func (d *Device) NoteNoPath() { d.noPathDrops++ }

// NoPathDrops reports how many frames were discarded because classification
// found no path for them.
func (d *Device) NoPathDrops() int64 { return d.noPathDrops }

// NewDevice attaches a NIC with the given address to the link. cpu may be
// nil, in which case receive handlers run without charging interrupt cost
// (used by traffic sources that are not part of the system under test).
// On a cross link the device lands on side 0 (the link's home engine).
func NewDevice(l *Link, addr MAC, cpu *sched.Sched) *Device {
	if l.cross != nil {
		return NewDeviceOn(l, addr, cpu, l.eng)
	}
	return l.mustAttach(addr, cpu, l.eng, 0)
}

// mustAttach registers a new device on the link.
func (l *Link) mustAttach(addr MAC, cpu *sched.Sched, eng *sim.Engine, side int) *Device {
	if _, dup := l.devs[addr]; dup {
		panic(fmt.Sprintf("netdev: duplicate MAC %s on link", addr))
	}
	d := &Device{Addr: addr, link: l, eng: eng, cpu: cpu, side: side}
	l.devs[addr] = d
	l.order = append(l.order, d)
	return d
}

// Transmit sends a frame (a complete Ethernet frame, headers included) to
// dst. The device takes ownership of m.
func (d *Device) Transmit(dst MAC, m *msg.Msg) {
	d.tx++
	if d.cpu != nil && d.TxCost > 0 {
		d.cpu.Interrupt(d.TxCost, nil)
	}
	d.link.transmit(d, dst, m)
}

// noteTxLoss counts one transmit-time carrier loss and fires the detector
// when the consecutive-loss streak reaches the threshold.
func (d *Device) noteTxLoss() {
	d.txLossStreak++
	if d.TxLossThreshold > 0 && d.txLossStreak >= d.TxLossThreshold {
		d.fireLinkDown()
	}
}

func (d *Device) fireLinkDown() {
	if d.ldFired {
		return
	}
	d.ldFired = true
	if d.OnLinkDown != nil {
		d.OnLinkDown()
	}
}

// ArmSilence arms the receive-silence detector: if no frame arrives for
// timeout of virtual time, OnLinkDown fires. Every arrival pushes the window
// forward. The detector is one owner-held event that re-arms itself lazily
// (no cancellation), so the event pattern — and therefore the run — is
// deterministic for a given arrival sequence. Arming again restarts the
// window; it never starts a second check.
func (d *Device) ArmSilence(timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	d.silence = timeout
	d.lastRx = d.eng.Now()
	if d.silenceFn == nil {
		d.silenceFn = d.checkSilence
	}
	d.eng.Rearm(&d.silenceEv, d.eng.Now().Add(timeout), d.silenceFn)
}

func (d *Device) checkSilence() {
	if d.silence <= 0 || d.ldFired {
		return
	}
	deadline := d.lastRx.Add(d.silence)
	if d.eng.Now() >= deadline {
		d.fireLinkDown()
		return
	}
	d.eng.Rearm(&d.silenceEv, deadline, d.silenceFn)
}

// receive lands one frame in the device's burst; the link flushes it once
// every frame of the instant has landed.
func (d *Device) receive(m *msg.Msg) {
	d.rx++
	m.Arrival = int64(d.eng.Now())
	d.lastRx = d.eng.Now()
	d.burst = append(d.burst, m)
}

// flush charges one interrupt entry of N×RxIRQCost for the landed burst and
// runs the handler over it. A handlerless device (never wired, or torn down
// by an earlier handler of the same instant) drops the frames and charges
// nothing for work no handler will do. Handlers run synchronously inside
// Interrupt, so the burst slice is reclaimed for the next batch.
func (d *Device) flush() {
	frames := d.burst
	if d.OnReceive == nil && d.OnReceiveBurst == nil {
		d.rxDropped += int64(len(frames))
		for _, m := range frames {
			m.Free()
		}
	} else {
		d.bursts++
		d.burstFrames += int64(len(frames))
		if d.cpu != nil {
			d.cpu.Interrupt(time.Duration(len(frames))*d.RxIRQCost, d.handleBurst)
		} else {
			d.handleBurst()
		}
	}
	clear(frames)
	d.burst = frames[:0]
}

// handleBurst is the interrupt body: the burst handler takes the whole
// burst in one call, or the per-frame handler each frame in arrival order.
func (d *Device) handleBurst() {
	if d.OnReceiveBurst != nil {
		d.OnReceiveBurst(d.burst)
		return
	}
	for _, m := range d.burst {
		d.OnReceive(m)
	}
}

// Stats reports (frames received, transmitted, dropped for lack of a
// handler).
func (d *Device) Stats() (rx, tx, dropped int64) { return d.rx, d.tx, d.rxDropped }

// BurstStats reports how many bursts the handlers took (one receive
// interrupt entry each) and how many frames they carried in total.
func (d *Device) BurstStats() (bursts, frames int64) { return d.bursts, d.burstFrames }

// Engine returns the simulation engine the device runs on.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Link returns the link the device is attached to.
func (d *Device) Link() *Link { return d.link }

// Generator injects copies of a template frame at a fixed rate — the
// reproduction's stand-in for `ping -f` (§4.3, Table 2).
type Generator struct {
	dev      *Device
	dst      MAC
	template []byte
	ticker   *sim.Ticker
	sent     int64
}

// NewGenerator sends a copy of frame to dst through dev every interval.
// Call Stop to cease fire.
func NewGenerator(dev *Device, dst MAC, frame []byte, interval time.Duration) *Generator {
	g := &Generator{dev: dev, dst: dst, template: append([]byte(nil), frame...)}
	g.ticker = dev.eng.Tick(interval, func() {
		buf := make([]byte, len(g.template))
		copy(buf, g.template)
		g.sent++
		dev.Transmit(dst, msg.New(buf))
	})
	return g
}

// Sent reports how many frames the generator has transmitted.
func (g *Generator) Sent() int64 { return g.sent }

// Stop ceases generation.
func (g *Generator) Stop() { g.ticker.Stop() }
