// Package splice is the control-plane live-migration subsystem (ROADMAP
// item 5): it survives the death of the link under a streaming path without
// tearing the path down and without losing a frame. The paper's thesis is
// that an explicit path is an object the OS can act on as a whole; splice is
// the strongest form of that so far — on a link-down verdict from netdev's
// deterministic failure detector the manager pauses the path at a stage
// boundary (queued messages and their fbuf references stay exactly where
// they are), rebuilds the stages below the boundary against a healthy
// device (core.Path.Resplice, which re-applies every interposer — trace
// spans, chaos faults, transformation rules — to the rebuilt stages), fans
// invalidation into both the retired and the adopting device's flow caches
// (generation bump, so stale burst memos can never deliver), nudges the
// transport through an injected hook, and resumes. No teardown, no
// re-handshake: the flow's sequence space, hold buffer and advertised window
// all live in the retained upper stages.
//
// The whole migration runs synchronously inside one virtual-clock event, so
// the end-to-end outage is dominated by detection latency — the silence
// window the caller arms — and the experiment gate (E14) bounds exactly
// that.
//
// Everything here is control plane: it runs on failure events, never per
// packet, and keeps no package-level state.
package splice

import (
	"errors"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/mpath"
	"scout/internal/netdev"
	"scout/internal/sim"
)

// Plan arms one migration: when From's failure detector fires, Path is
// respliced below the manager's boundary onto To.
type Plan struct {
	// Path is the path to protect. Its stages at and above the boundary
	// survive the migration untouched.
	Path *core.Path
	// From is the device currently under the path; its OnLinkDown verdict
	// triggers the migration. To is the adopting device.
	From, To *netdev.Device
	// ToLink is the appliance link index of To (the PA_MPATH_LINK value the
	// rebuilt IP stage routes by).
	ToLink int
	// Silence is the receive-silence window armed on From: no arrival for
	// this much virtual time is the detector's death verdict. Zero arms
	// nothing (the caller may drive detection via TxLossThreshold instead).
	Silence time.Duration
	// Set, when non-nil, has every subpath riding From marked Dead on
	// migration, so no selection policy ever re-pins onto the downed link.
	Set *mpath.PathSet
}

// Migration records one completed migration.
type Migration struct {
	PID              int64
	FromLink, ToLink int
	// At is the virtual time the path resumed on the new device.
	At sim.Time
	// Detect is the silence window that produced the verdict; the migration
	// itself is synchronous, so At − (link death) ≤ Detect + one window.
	Detect time.Duration
}

// Manager performs pause→resplice→invalidate→resume migrations for the
// paths armed with it. It is an appliance-scoped control-plane object; the
// appliance wires the transport's readvertisement hook so splice does not
// depend on mflow.
type Manager struct {
	eng      *sim.Engine
	boundary string

	// Readvertise, when non-nil, runs after a successful resplice, before
	// Resume — the transport sends an unsolicited window advertisement down
	// the fresh chain so the sender learns the receiver survived.
	Readvertise func(p *core.Path)

	migrations []Migration
	failed     int64
}

// New returns a Manager migrating at the named boundary router (the video
// appliance pauses at "MFLOW": everything below — UDP, IP, ETH — is
// device-specific and rebuilt; everything above owns the flow state and
// survives).
func New(eng *sim.Engine, boundary string) *Manager {
	return &Manager{eng: eng, boundary: boundary}
}

// Migrations returns the completed migrations in completion order.
func (m *Manager) Migrations() []Migration { return m.migrations }

// Failed reports migrations that could not complete (the path was destroyed
// instead — the only safe continuation after a half-built resplice).
func (m *Manager) Failed() int64 { return m.failed }

// Arm installs the plan: the From device's link-down verdict is routed
// through the path's overload plumbing as OverloadLinkDown (so it is
// counted and observable like every other pressure signal), and the
// manager's handler performs the migration. Any previously installed
// OnOverload handler keeps receiving the other signal kinds.
func (m *Manager) Arm(pl Plan) error {
	if pl.Path == nil || pl.From == nil || pl.To == nil {
		return errors.New("splice: plan needs Path, From and To")
	}
	if pl.Path.StageOf(m.boundary) == nil {
		return errors.New("splice: path has no boundary stage " + m.boundary)
	}
	p := pl.Path
	prev := p.OnOverload
	p.OnOverload = func(p *core.Path, kind core.OverloadKind, amount time.Duration) {
		if kind == core.OverloadLinkDown {
			m.migrate(pl, amount)
			return
		}
		if prev != nil {
			prev(p, kind, amount)
		}
	}
	pl.From.OnLinkDown = func() {
		p.NotifyOverload(core.OverloadLinkDown, pl.Silence)
	}
	if pl.Silence > 0 {
		pl.From.ArmSilence(pl.Silence)
	}
	return nil
}

// migrate is the whole migration, synchronous within the triggering event:
// mark the downed subpaths dead, pause, resplice onto the new device,
// invalidate both flow caches, readvertise, resume.
func (m *Manager) migrate(pl Plan, detect time.Duration) {
	p := pl.Path
	if p.Dead() {
		return
	}
	if pl.Set != nil {
		pl.Set.MarkDeadDev(pl.From)
	}
	if err := p.PauseAt(m.boundary); err != nil {
		m.failed++
		return
	}
	a := p.Attrs.Clone()
	a.Set(attr.MPathLink, pl.ToLink)
	if err := p.Resplice(m.boundary, a); err != nil {
		// A half-built lower chain cannot carry traffic; tear the path
		// down (Destroy drains what the pause retained, conservation
		// audits stay clean).
		m.failed++
		p.Destroy()
		return
	}
	p.Attrs.Set(attr.MPathLink, pl.ToLink)
	// Fan invalidation into BOTH edges: the retired device must forget the
	// path (its burst memos included), and the adopting device's generation
	// must advance so any memo formed against pre-migration contents is
	// revalidated before it can short-circuit classification.
	if pl.From.Flows != nil {
		pl.From.Flows.InvalidatePath(p)
	}
	if pl.To.Flows != nil {
		pl.To.Flows.InvalidatePath(p)
	}
	if m.Readvertise != nil {
		m.Readvertise(p)
	}
	p.Resume()
	m.migrations = append(m.migrations, Migration{
		PID:      p.PID,
		FromLink: pl.From.Link().ID(),
		ToLink:   pl.To.Link().ID(),
		At:       m.eng.Now(),
		Detect:   detect,
	})
}
