// Package chaos is the resource-exhaustion fault plane the overload
// experiments drive. Every fault is deterministic: it is scheduled on the
// virtual clock, parameterized explicitly, and any randomness comes from the
// simulation engine's seeded source — the same seed produces the same fault
// sequence, the same overload signals, and byte-identical experiment
// exports, which is what lets CI assert on chaos runs at all.
//
// The faults mirror how a real Scout appliance gets into trouble: stages
// whose CPU cost balloons (a pathological clip, a slower CPU), fbuf pools
// and queues squeezed below their provisioned capacity (memory pressure),
// a stage that stalls outright, and an admission model poisoned by
// adversarial measurements. What the faults deliberately never do is break
// accounting: package chaos also carries the audit half (audit.go) that
// checks conservation invariants after every fault run.
package chaos

import (
	"math"
	"time"

	"scout/internal/admission"
	"scout/internal/core"
	"scout/internal/fbuf"
	"scout/internal/msg"
	"scout/internal/sim"
)

// Injector applies faults on a simulation's virtual clock.
type Injector struct {
	eng *sim.Engine

	inflatedCalls int64
	inflatedCPU   time.Duration
	stalledCalls  int64
	poolSqueezes  int64
	queueSqueezes int64
	poisonedObs   int64
}

// New returns an injector bound to the engine's clock.
func New(eng *sim.Engine) *Injector { return &Injector{eng: eng} }

// Stats is a snapshot of everything the injector has done.
type Stats struct {
	InflatedCalls int64         // stage deliveries whose CPU cost was inflated
	InflatedCPU   time.Duration // total extra CPU charged
	StalledCalls  int64         // stage deliveries hit by a stall
	PoolSqueezes  int64         // fbuf pool limit squeezes applied
	QueueSqueezes int64         // queue capacity squeezes applied
	PoisonedObs   int64         // adversarial observations fed to a model
}

// Stats returns the injector's counters.
func (in *Injector) Stats() Stats {
	return Stats{
		InflatedCalls: in.inflatedCalls,
		InflatedCPU:   in.inflatedCPU,
		StalledCalls:  in.stalledCalls,
		PoolSqueezes:  in.poolSqueezes,
		QueueSqueezes: in.queueSqueezes,
		PoisonedObs:   in.poisonedObs,
	}
}

// InflateStageCPU multiplies the CPU cost charged by the named stage's
// deliver functions by factor inside the virtual-time window [from, until).
// It wraps the stage's interfaces in both directions; deliveries outside the
// window pass through at original cost, so a single wrap models a transient
// overload ramp. Reports false if the path has no such stage.
func (in *Injector) InflateStageCPU(p *core.Path, router string, factor float64, from, until sim.Time) bool {
	if factor <= 1 {
		return false
	}
	return in.interpose(p, router, func(inner func(*core.NetIface, *msg.Msg) error, i *core.NetIface, m *msg.Msg) error {
		now := in.eng.Now()
		if now < from || now >= until {
			return inner(i, m)
		}
		before := p.ExecCost()
		err := inner(i, m)
		if delta := p.ExecCost() - before; delta > 0 {
			extra := time.Duration(float64(delta) * (factor - 1))
			p.ChargeExec(extra)
			in.inflatedCalls++
			in.inflatedCPU += extra
		}
		return err
	})
}

// StallStage charges a fixed extra CPU cost on every delivery through the
// named stage inside [from, until) — a stuck lock, a page fault storm, a
// stage gone slow. Reports false if the path has no such stage.
func (in *Injector) StallStage(p *core.Path, router string, extra time.Duration, from, until sim.Time) bool {
	if extra <= 0 {
		return false
	}
	return in.interpose(p, router, func(inner func(*core.NetIface, *msg.Msg) error, i *core.NetIface, m *msg.Msg) error {
		now := in.eng.Now()
		if now >= from && now < until {
			p.ChargeExec(extra)
			in.stalledCalls++
		}
		return inner(i, m)
	})
}

// interpose registers wrap around the deliver function of both directions
// of every stage the named router contributes to p, as a path interposer:
// a stage a resplice rebuilds carries the fault too.
func (in *Injector) interpose(p *core.Path, router string,
	wrap func(inner func(*core.NetIface, *msg.Msg) error, i *core.NetIface, m *msg.Msg) error) bool {
	if p.StageOf(router) == nil {
		return false
	}
	p.Interpose(func(_ int, s *core.Stage) {
		if s.Router.Name != router {
			return
		}
		for _, e := range s.End {
			if ni, ok := e.(*core.NetIface); ok && ni != nil && ni.Deliver != nil {
				inner := ni.Deliver
				ni.Deliver = func(i *core.NetIface, m *msg.Msg) error {
					return wrap(inner, i, m)
				}
			}
		}
	})
	return true
}

// SqueezePool drops an fbuf pool's buffer limit to squeeze for the given
// duration, then restores the previous limit. Gets at the squeezed limit
// fail with fbuf.ErrExhausted; buffers already out stay valid (SetLimit
// never revokes live buffers).
func (in *Injector) SqueezePool(p *fbuf.Pool, squeeze int, d time.Duration) {
	old := p.Limit()
	p.SetLimit(squeeze)
	in.poolSqueezes++
	in.eng.After(d, func() { p.SetLimit(old) })
}

// SqueezeQueue drops a queue's capacity for the given duration, then
// restores it. Items evicted by the squeeze are counted as sheds by the
// queue and freed here if they carry buffers.
func (in *Injector) SqueezeQueue(q *core.Queue, squeeze int, d time.Duration) {
	old := q.Max()
	for _, item := range q.SetMax(squeeze) {
		if f, ok := item.(interface{ Free() }); ok {
			f.Free()
		}
	}
	in.queueSqueezes++
	in.eng.After(d, func() { q.SetMax(old) })
}

// PoisonModel feeds n adversarial observations to an admission model:
// NaN/Inf/negative values (which the model must reject) interleaved with
// wildly biased but finite ones (which it cannot tell from real data). The
// mix is drawn from the engine's seeded source, so the poison sequence is
// deterministic per seed. Returns how many of the n were the rejectable
// kind, for asserting the model's Rejected counter.
func (in *Injector) PoisonModel(m *admission.Model, n int) (rejectable int) {
	nan := math.NaN()
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		in.poisonedObs++
		switch in.eng.Rand().Intn(5) {
		case 0:
			m.Observe(nan, time.Millisecond)
			rejectable++
		case 1:
			m.Observe(1e5, time.Duration(-1))
			rejectable++
		case 2:
			m.Observe(inf, time.Millisecond)
			rejectable++
		case 3:
			m.Observe(-1e5, time.Millisecond)
			rejectable++
		default:
			// Finite but absurd: a tiny frame that "took" 10 seconds.
			m.Observe(1, 10*time.Second)
		}
	}
	return rejectable
}
