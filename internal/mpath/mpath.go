// Package mpath is the multipath transport subsystem: it makes the set of
// parallel paths between one source/sink pair an explicit object. Scout's
// thesis is that a path should be named and first-class; a PathSet extends
// that to k established core.Paths carrying one logical MFLOW flow, with
// per-subpath quality tracked on the virtual clock (EWMA latency, EWMA
// loss, device-end queue depth) and a pluggable policy deciding, at sender
// dispatch time, which subpath each packet rides.
//
// The flow's identity is shared across subpaths by construction: every
// sibling joins the primary's MFLOW flow state (PA_MPATH_JOIN), so
// sequencing, resequencing, and the advertised window are one per flow, and
// cross-path reordering is absorbed by the reliable receiver's hold buffer.
// What mpath adds is the selection layer in front: policies observe subpath
// quality and pick; a re-pin (a non-striping policy abandoning one subpath
// for another) fans into the retired subpath's device flow cache as an
// InvalidatePath, bumping the cache generation, so the device-edge fast
// path can never keep delivering on the strength of a superseded decision.
//
// Everything here is single-owner data-path state on the simulation's
// virtual clock: no goroutines, no package-level state, deterministic
// iteration everywhere (policies scan subpaths by index).
package mpath

import (
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/netdev"
)

// EWMA smoothing: latency samples are plentiful (every arrival), so a
// moderate gain tracks genuine shifts without chasing noise; the loss
// estimator decays on every arrival and charges on every loss event, so its
// equilibrium approximates the subpath's loss rate.
const (
	latGain  = 8  // new sample weight 1/latGain
	lossGain = 32 // loss event weight 1/lossGain
)

// Subpath is one member of a PathSet: an established core.Path over one of
// the parallel links, plus the quality state policies score it by.
type Subpath struct {
	// ID is the subpath index within the flow (0 = primary). It matches the
	// PA_MPATH_SUB attribute of the underlying path.
	ID int
	// Path is the established path this subpath rides.
	Path *core.Path
	// Dev is the NIC at the path's device end; a re-pin away from this
	// subpath invalidates its flow-cache entries.
	Dev *netdev.Device
	// Label distinguishes the subpath in traces and reports.
	Label string

	latEWMA  time.Duration
	latSeen  bool
	lossEWMA float64
	qdepth   int
	dead     bool

	sent, acked, lost int64
}

// Dead reports whether the subpath was terminally retired (MarkDead): its
// link is administratively down, so no policy may pick it again. The state
// is terminal by design — once traffic leaves a dead subpath nothing decays
// its loss EWMA, so without it the estimate would look pristine forever and
// a loss-ranked policy would happily re-pin onto a black hole.
func (s *Subpath) Dead() bool { return s.dead }

// LatEWMA reports the smoothed one-way latency (0 until the first sample).
func (s *Subpath) LatEWMA() time.Duration { return s.latEWMA }

// LossEWMA reports the smoothed loss estimate in [0, 1).
func (s *Subpath) LossEWMA() float64 { return s.lossEWMA }

// SubStats is a point-in-time snapshot of one subpath's counters.
type SubStats struct {
	ID       int
	Label    string
	Sent     int64
	Acked    int64
	Lost     int64
	LatEWMA  time.Duration
	LossEWMA float64
	QDepth   int
	Dead     bool
}

// Policy decides which subpath carries each outbound packet. Pick runs at
// sender dispatch and must be deterministic in (ps, seq, retx): it may read
// any quality state on ps but mutate nothing. Repin distinguishes policies
// that commit the flow to one subpath at a time (a pick change is a re-pin
// and invalidates the retired subpath's flow-cache entries) from striping
// policies whose per-packet spreading is the steady state.
type Policy interface {
	Name() string
	Pick(ps *PathSet, seq uint32, retx bool) int
	Repin() bool
}

// PathSet is a multipath flow's path collection and selection state: the
// k subpaths, the policy, and the switch/re-pin accounting the oscillation
// analyses read.
type PathSet struct {
	label  string
	policy Policy
	subs   []*Subpath

	lastPick int
	picked   bool // false until the first Dispatch
	switches int64
	repins   int64
}

// New returns an empty PathSet for a flow with the given report label.
func New(label string, policy Policy) *PathSet {
	if policy == nil {
		policy = Pinned(0)
	}
	return &PathSet{label: label, policy: policy}
}

// Label reports the flow label.
func (ps *PathSet) Label() string { return ps.label }

// Policy reports the installed selection policy.
func (ps *PathSet) Policy() Policy { return ps.policy }

// Add appends a subpath and returns it; subpaths get consecutive IDs in the
// order added (the primary first).
func (ps *PathSet) Add(p *core.Path, dev *netdev.Device, label string) *Subpath {
	s := &Subpath{ID: len(ps.subs), Path: p, Dev: dev, Label: label}
	ps.subs = append(ps.subs, s)
	return s
}

// K reports the number of subpaths.
func (ps *PathSet) K() int { return len(ps.subs) }

// Sub returns subpath i.
func (ps *PathSet) Sub(i int) *Subpath { return ps.subs[i] }

// Dispatch picks the subpath for one outbound packet (seq, retx marks a
// retransmission) and records the send. A pick change counts as a switch;
// under a re-pinning policy it also retires the previous subpath: its
// device flow-cache entries are invalidated, advancing the cache
// generation, so the interrupt-time fast path re-walks the next frame
// instead of trusting a superseded binding.
func (ps *PathSet) Dispatch(seq uint32, retx bool) int {
	pick := ps.policy.Pick(ps, seq, retx)
	if pick < 0 || pick >= len(ps.subs) {
		pick = 0
	}
	if ps.subs[pick].dead {
		// Backstop below the policies: whatever a policy returns, a packet
		// is never dispatched onto a dead subpath while a live one exists.
		// Deterministic: lowest live ID wins.
		for i, s := range ps.subs {
			if !s.dead {
				pick = i
				break
			}
		}
	}
	if ps.picked && pick != ps.lastPick {
		ps.switches++
		if ps.policy.Repin() {
			ps.repins++
			retired := ps.subs[ps.lastPick]
			if retired.Dev != nil && retired.Dev.Flows != nil && retired.Path != nil {
				retired.Dev.Flows.InvalidatePath(retired.Path)
			}
		}
	}
	ps.picked = true
	ps.lastPick = pick
	ps.subs[pick].sent++
	return pick
}

// LastPick reports the most recently dispatched subpath (before the first
// dispatch: the seeded incumbent, default 0).
func (ps *PathSet) LastPick() int { return ps.lastPick }

// SeedPick sets the subpath the policy treats as incumbent before the first
// dispatch. Competing flows seed different incumbents (flow mod k) so they
// start spread across the set instead of herding on subpath 0; the first
// real dispatch is not counted as a switch.
func (ps *PathSet) SeedPick(sub int) {
	if !ps.picked && sub >= 0 && sub < len(ps.subs) {
		ps.lastPick = sub
	}
}

// MarkDead terminally retires subpath sub — the migration layer calls it
// when the link under the subpath is administratively down. The retired
// subpath's device flow-cache entries are invalidated (generation bump
// included), the same fan-out a re-pin performs, so the interrupt-time fast
// path cannot keep a binding the control plane knows is dead. Idempotent.
func (ps *PathSet) MarkDead(sub int) {
	if sub < 0 || sub >= len(ps.subs) {
		return
	}
	s := ps.subs[sub]
	if s.dead {
		return
	}
	s.dead = true
	if s.Dev != nil && s.Dev.Flows != nil && s.Path != nil {
		s.Dev.Flows.InvalidatePath(s.Path)
	}
}

// MarkDeadDev marks every subpath riding dev dead (MarkDead semantics) —
// the natural fan-out for a per-device link-down signal.
func (ps *PathSet) MarkDeadDev(dev *netdev.Device) {
	for i, s := range ps.subs {
		if s.Dev == dev {
			ps.MarkDead(i)
		}
	}
}

// Alive reports how many subpaths are not dead.
func (ps *PathSet) Alive() int {
	n := 0
	for _, s := range ps.subs {
		if !s.dead {
			n++
		}
	}
	return n
}

// NoteArrival feeds one receiver-side observation (from mflow.SetObserver):
// a data packet arrived on sub with the given one-way latency and device-end
// queue depth. Arrivals decay the loss estimate — evidence the subpath is
// delivering.
func (ps *PathSet) NoteArrival(sub int, oneWay time.Duration, qdepth int) {
	if sub < 0 || sub >= len(ps.subs) {
		return
	}
	s := ps.subs[sub]
	if !s.latSeen {
		s.latSeen = true
		s.latEWMA = oneWay
	} else {
		s.latEWMA += (oneWay - s.latEWMA) / latGain
	}
	s.lossEWMA -= s.lossEWMA / lossGain
	s.qdepth = qdepth
}

// NoteAck records sender-side evidence that a packet sent on sub was
// cumulatively acknowledged.
func (ps *PathSet) NoteAck(sub int) {
	if sub < 0 || sub >= len(ps.subs) {
		return
	}
	ps.subs[sub].acked++
}

// NoteLoss records a sender-side loss signal (fast retransmit or RTO) for a
// packet last sent on sub, charging the subpath's loss estimate.
func (ps *PathSet) NoteLoss(sub int) {
	if sub < 0 || sub >= len(ps.subs) {
		return
	}
	s := ps.subs[sub]
	s.lost++
	s.lossEWMA += (1 - s.lossEWMA) / lossGain
}

// Switches reports how many times Dispatch changed subpath — the
// oscillation count the path-selection literature predicts for greedy
// policies under shared congestion.
func (ps *PathSet) Switches() int64 { return ps.switches }

// Repins reports how many switches were re-pins (non-striping policies),
// each of which invalidated the retired subpath's flow-cache entries.
func (ps *PathSet) Repins() int64 { return ps.repins }

// Snapshot returns per-subpath counters in ID order.
func (ps *PathSet) Snapshot() []SubStats {
	out := make([]SubStats, len(ps.subs))
	for i, s := range ps.subs {
		out[i] = SubStats{
			ID: s.ID, Label: s.Label,
			Sent: s.sent, Acked: s.acked, Lost: s.lost,
			LatEWMA: s.latEWMA, LossEWMA: s.lossEWMA, QDepth: s.qdepth,
			Dead: s.dead,
		}
	}
	return out
}

// String renders the set compactly for debugging.
func (ps *PathSet) String() string {
	return fmt.Sprintf("mpath(%s, %s, k=%d)", ps.label, ps.policy.Name(), len(ps.subs))
}
