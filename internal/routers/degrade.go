package routers

import (
	"time"

	"scout/internal/core"
	"scout/internal/proto/mflow"
	"scout/internal/sim"
)

// DegradeConfig parameterizes a VideoDegrader.
type DegradeConfig struct {
	// GOP is the clip's group-of-pictures length (default 15). The ladder
	// has GOP-1 rungs: level L sheds the L P frames latest in each GOP.
	GOP int
	// Window is the control period over which deadline misses are counted
	// (default 250ms).
	Window time.Duration
	// MissBudget is how many deadline misses per window trigger escalation
	// (default 2).
	MissBudget int64
	// WindowCap, when non-zero, caps the MFLOW advertised window (packets
	// past the highest arrived seq) while degraded, so a
	// backpressure-capable source throttles at the origin. Off by default:
	// early discard leaves holes in the arriving sequence space, so a cap
	// smaller than a shed run throttles the source below real time and
	// keeps the ladder engaged after the overload has passed. The path's
	// input queue already narrows the advertisement naturally as it fills;
	// use an explicit cap only when the cap exceeds the worst shed run
	// (roughly packets-per-frame × ladder level).
	WindowCap uint32
	// MFLOWRouter names the path's MFLOW stage (default "MFLOW").
	MFLOWRouter string
}

// VideoDegrader implements graceful overload degradation for an MPEG path
// using the ALF property the paper builds the appliance on: every packet
// names its frame, so load can be shed at interrupt time with frame-kind
// precision. The ladder never sheds I frames (every later frame in the GOP
// depends on them); level L sheds the L P frames at the tail of each GOP —
// the frames no other frame depends on — so quality decays smoothly from
// 30fps toward I-frames-only instead of collapsing.
//
// Escalation is driven by the scheduler watchdog: the path's deadline-miss
// counter is sampled every Window; a hot window (>= MissBudget new misses)
// escalates one rung, a calm window (no new misses) relaxes one. Shed
// packets are still reported to the path's MFLOW stage (NoteShed) so the
// advertised window keeps moving across shed runs and the source returns to
// full rate as soon as the ladder relaxes.
type VideoDegrader struct {
	cfg    DegradeConfig
	p      *core.Path
	ticker *sim.Ticker

	level      int
	lastMisses int64

	// Per-frame shed decision, sticky across the frame's packets (ALF sheds
	// frames, not packets: admitting half a frame wastes queue space and
	// decode effort on something that can never complete). curFrame starts
	// at ^0 so frame 0's first packet takes the decision branch.
	curFrame uint32
	curShed  bool
	curRefl  bool

	// ShedP counts P-frame packets discarded by the ladder; ShedI must
	// stay 0 — E11 and the chaos tests assert it.
	ShedP, ShedI int64
	// ReflexSheds counts the subset of ShedP taken above the miss-driven
	// level by the queue-occupancy reflex.
	ReflexSheds int64
	// Escalations and Relaxations count ladder movements.
	Escalations, Relaxations int64
}

// AttachDegrader installs a degradation controller on an MPEG path. Its
// early-discard filter composes with any already installed (decimation):
// either filter discarding drops the packet. The controller lives on the
// path's MPEG stage; its ticker stops when the path is destroyed.
func AttachDegrader(eng *sim.Engine, p *core.Path, cfg DegradeConfig) *VideoDegrader {
	if cfg.GOP <= 1 {
		cfg.GOP = 15
	}
	if cfg.Window <= 0 {
		cfg.Window = 250 * time.Millisecond
	}
	if cfg.MissBudget <= 0 {
		cfg.MissBudget = 2
	}
	if cfg.MFLOWRouter == "" {
		cfg.MFLOWRouter = "MFLOW"
	}
	d := &VideoDegrader{cfg: cfg, p: p, curFrame: ^uint32(0)}

	prev := p.EarlyDiscard
	p.EarlyDiscard = func(item any) bool {
		if prev != nil && prev(item) {
			return true
		}
		return d.discard(item)
	}

	d.ticker = eng.Tick(cfg.Window, d.tick)
	if sd := mpegStageOf(p); sd != nil {
		sd.degrader = d
	}
	p.AddDestroyHook(func(*core.Path) { d.ticker.Stop() })
	return d
}

// DegraderOf returns the degradation controller attached to p, or nil; a
// dead path has none.
func DegraderOf(p *core.Path) *VideoDegrader {
	if sd := mpegStageOf(p); sd != nil && !p.Dead() {
		return sd.degrader
	}
	return nil
}

// Level reports the current ladder rung (0 = full quality).
func (d *VideoDegrader) Level() int { return d.level }

// discard is the ladder's early-discard filter: it peeks the ALF frame
// number through the stacked headers (like DecimationFilter) and sheds
// packets of P frames whose GOP position is within the top rungs of the
// effective level. Position 0 is the I frame and is never shed.
//
// The effective level is the maximum of two control loops. The slow loop is
// the miss-driven level (tick). The fast loop is a stateless reflex on
// input-queue occupancy: the miss signal needs a control window to react,
// but a live source fills the input queue in a fraction of that, and once
// the queue is full the tail drop is indiscriminate — the one thing the
// ladder exists to prevent. The reflex ramps from nothing at quarter-full
// to shed-all-P at half-full, which keeps the remaining half of the queue
// free for the worst-case burst the filter always admits (one I frame,
// ~3× the average P bits).
func (d *VideoDegrader) discard(item any) bool {
	frameNo, seq, ok := alfFrameNo(item)
	if !ok {
		return false
	}
	if frameNo != d.curFrame {
		// First packet of a new frame: take the shed decision once; the
		// frame's remaining packets inherit it (packets of a frame arrive
		// contiguously — the source paces whole frames).
		d.curFrame = frameNo
		d.curShed, d.curRefl = false, false
		pos := int(frameNo) % d.cfg.GOP
		if pos != 0 { // I frame: the GOP's anchor, never shed
			level := d.level
			q := d.p.Q[core.QInBWD]
			if r := (d.cfg.GOP - 1) * (4*q.Len() - q.Max()) / q.Max(); r > level {
				if r > d.cfg.GOP-1 {
					r = d.cfg.GOP - 1
				}
				level = r
			}
			d.curShed = pos >= d.cfg.GOP-level
			d.curRefl = d.curShed && pos < d.cfg.GOP-d.level
		}
	}
	if d.curShed {
		d.ShedP++
		if d.curRefl {
			d.ReflexSheds++
		}
		// The seq must still count as arrived for flow control, or the
		// advertised window stalls behind the shed run and keeps throttling
		// the source after the overload has passed.
		mflow.NoteShed(d.p, d.cfg.MFLOWRouter, seq)
		return true
	}
	return false
}

// alfFrameNo peeks the ALF frame number (and the MFLOW sequence number) of a
// raw Ethernet frame through the stacked headers, like DecimationFilter.
func alfFrameNo(item any) (frameNo, seq uint32, ok bool) {
	const (
		mfOff = 14 + 20 + 8 // eth + ip + udp headers
		off   = mfOff + 17  // + mflow header
	)
	m, ok := item.(peeker)
	if !ok {
		return 0, 0, false
	}
	hdr, err := m.Peek(off + 4)
	if err != nil {
		return 0, 0, false
	}
	seq = uint32(hdr[mfOff+1])<<24 | uint32(hdr[mfOff+2])<<16 | uint32(hdr[mfOff+3])<<8 | uint32(hdr[mfOff+4])
	frameNo = uint32(hdr[off])<<24 | uint32(hdr[off+1])<<16 | uint32(hdr[off+2])<<8 | uint32(hdr[off+3])
	return frameNo, seq, true
}

type peeker interface {
	Peek(n int) ([]byte, error)
}

// tick is the Window-period controller: escalate a rung on a hot window,
// relax one on a calm one. Misses alone are not enough to escalate: shedding
// empties the display pipeline, so the first frames after each shed gap miss
// their slots no matter how fast the CPU is (the EDF deadline is derived
// from queue occupancy, and the queue is empty exactly because upstream
// frames were shed). Genuine CPU overload is the state where the decode
// input queue backs up; misses without backlog are arrival-limited and call
// for relaxing, not escalating.
func (d *VideoDegrader) tick() {
	misses := d.p.Overloads(core.OverloadDeadlineMiss)
	delta := misses - d.lastMisses
	d.lastMisses = misses
	backlog := d.p.Q[core.QInBWD].Len()
	switch {
	case delta >= d.cfg.MissBudget && backlog > 0:
		d.setLevel(d.level + 1)
	case delta == 0 || backlog == 0:
		d.setLevel(d.level - 1)
	}
}

// Degrade forces the ladder to at least the given level; admission
// revocation uses it to degrade a path instead of tearing it down.
func (d *VideoDegrader) Degrade(level int) {
	if level > d.level {
		d.setLevel(level)
	}
}

func (d *VideoDegrader) setLevel(level int) {
	if level < 0 {
		level = 0
	}
	if top := d.cfg.GOP - 1; level > top {
		level = top
	}
	if level == d.level {
		return
	}
	if level > d.level {
		d.Escalations++
	} else {
		d.Relaxations++
	}
	d.level = level
	if d.cfg.WindowCap > 0 {
		if level > 0 {
			mflow.SetWindowCap(d.p, d.cfg.MFLOWRouter, d.cfg.WindowCap)
		} else {
			mflow.SetWindowCap(d.p, d.cfg.MFLOWRouter, 0)
		}
	}
}
