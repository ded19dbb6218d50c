// Package pathtrace is the per-path tracing and metrics subsystem. The
// paper's central claim is that explicit paths make resource usage
// attributable (§4, Tables 1–2); this package turns the raw accounting the
// core already keeps (Path.AddCPU, ChargeExec, queue counters) into a
// breakdown of *where inside a path* time goes: per-stage CPU spans with
// self/cumulative attribution, queue-wait histograms, scheduler execution
// spans including interrupt steal, and link serialization spans — all on the
// virtual clock, keyed by path ID and stage name, and therefore
// byte-for-byte deterministic under a fixed seed.
//
// Instrumentation is attach-on-demand: InstrumentPath wraps a path's
// NetIface Deliver pointers through core.Path.Interpose (the hook §3.3's
// transformation rules use, which a resplice re-applies to the stages it
// rebuilds) and installs observers on its four queues. Paths that are not
// instrumented — and every path when the tracer is disabled — pay only a
// nil-check on the hot path and allocate nothing.
//
// Layering: core cannot import sim (see DESIGN.md), so the hooks core
// exposes are clock-agnostic function fields; this package, which sits
// above both, closes over the engine and supplies the timestamps.
package pathtrace

import (
	"math"
	"time"

	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/sim"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindSpan is a stage execution: a message traversing one stage's
	// Deliver. Dur is the cumulative CPU charged during the traversal
	// (including nested stages); Arg is the self cost in nanoseconds.
	KindSpan Kind = iota
	// KindExec is a scheduler execution of the path's thread. Dur is the
	// actual busy time including interrupt steal; Arg is the charged CPU in
	// nanoseconds (Dur − Arg = stolen).
	KindExec
	// KindWire is the link serialization of an arriving frame; Dur is the
	// airtime.
	KindWire
	// KindEnqueue/KindDequeue sample a queue transition; Arg is the depth
	// after the transition.
	KindEnqueue
	KindDequeue
	// KindDrop records a refused enqueue; Arg is the queue length.
	KindDrop
)

// Event is one trace record. TS for KindSpan is synthetic: virtual-now plus
// the execution cost accumulated before the stage was entered, so that spans
// recorded within a single thread execution nest flame-graph style instead
// of piling up at the dispatch instant.
type Event struct {
	TS   sim.Time
	Dur  time.Duration
	Kind Kind
	PID  int64
	TID  int // trace row: 0 = exec, 1..n = stages, n+1 = wire
	Name string
	Msg  int64 // message trace id, 0 if none
	Arg  int64 // kind-specific (see Kind docs)
}

// StageMetrics aggregates one stage of one instrumented path.
type StageMetrics struct {
	Stage string
	// Execs counts Deliver traversals through the stage.
	Execs int64
	// SelfCPU is CPU charged while inside this stage but not inside a
	// nested stage; CumCPU includes nested stages.
	SelfCPU time.Duration
	CumCPU  time.Duration

	tid int
}

// QueueMetrics aggregates one of a path's four queues. Wait is the
// enqueue-to-dequeue latency distribution; because path queues are strict
// FIFO, waits are matched positionally with a ring of enqueue timestamps.
type QueueMetrics struct {
	Queue    string
	Enqueued int64
	Dequeued int64
	Dropped  int64 // tail drops: enqueues refused on a full queue
	Shed     int64 // queued items removed unserviced (squeeze, teardown)
	MaxDepth int
	Wait     Hist

	ring []sim.Time
	head int
	n    int
}

// ExecMetrics aggregates the path thread's scheduler executions. Actual −
// Charged is the CPU interrupt handlers stole while the path was running.
type ExecMetrics struct {
	Execs   int64
	Charged time.Duration
	Actual  time.Duration
}

// Steal reports the CPU stolen from the path's executions by interrupts.
func (e ExecMetrics) Steal() time.Duration { return e.Actual - e.Charged }

// WireMetrics aggregates link serialization of frames arriving into the
// path.
type WireMetrics struct {
	Frames  int64
	Airtime time.Duration
}

// PathInfo is the tracer's per-path registry entry. Stages are in creation
// order; Queues are indexed by the core queue indices (QInFWD..QOutBWD).
type PathInfo struct {
	PID    int64
	Label  string
	Stages []*StageMetrics
	Queues [4]*QueueMetrics
	Exec   ExecMetrics
	Wire   WireMetrics
}

type openSpan struct {
	ev     int // index into events, -1 if the event buffer was full
	sm     *StageMetrics
	p      *core.Path
	before time.Duration // Path.ExecCost() at entry
	child  time.Duration // cumulative cost of completed nested spans
}

// Options configures a Tracer.
type Options struct {
	// MaxEvents caps the event buffer; further events are counted in
	// EventsLost but metrics keep aggregating. 0 means DefaultMaxEvents.
	MaxEvents int
}

// DefaultMaxEvents bounds the event buffer when Options.MaxEvents is zero.
const DefaultMaxEvents = 1 << 20

// Tracer records spans and metrics for instrumented paths. It is
// single-threaded, like the simulation that drives it. The zero of every
// guard applies: a nil Tracer and a disabled Tracer are both safe to call
// and do nothing.
type Tracer struct {
	eng     *sim.Engine
	enabled bool
	max     int

	events  []Event
	lost    int64
	nextMsg int64

	paths map[int64]*PathInfo
	order []*PathInfo
	stack []openSpan

	devSampler func() []DevSummary
}

// SetDeviceSampler installs the function MetricsDoc uses to snapshot
// device-edge counters: flow-cache hit/miss/insert/eviction/invalidation
// totals and no-path discards. The appliance installs one over its NICs;
// without one the metrics document simply has no device section.
func (t *Tracer) SetDeviceSampler(fn func() []DevSummary) {
	if t != nil {
		t.devSampler = fn
	}
}

// New returns a disabled tracer on eng; call SetEnabled(true) before
// instrumenting paths.
func New(eng *sim.Engine, o Options) *Tracer {
	max := o.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	return &Tracer{eng: eng, max: max, paths: make(map[int64]*PathInfo)}
}

// SetEnabled turns recording on or off. Disabling does not unwrap already
// instrumented paths; their hooks check the flag.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled = on
	}
}

// Enabled reports whether the tracer records.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Events returns the recorded events in record order. The slice is owned by
// the tracer.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// EventsLost reports how many events were discarded after the buffer
// filled. Metrics are unaffected by event loss.
func (t *Tracer) EventsLost() int64 {
	if t == nil {
		return 0
	}
	return t.lost
}

// Paths returns the instrumented paths in instrumentation order.
func (t *Tracer) Paths() []*PathInfo {
	if t == nil {
		return nil
	}
	return t.order
}

// Path returns the registry entry for pid, or nil.
func (t *Tracer) Path(pid int64) *PathInfo {
	if t == nil {
		return nil
	}
	return t.paths[pid]
}

func (t *Tracer) emit(ev Event) int {
	if len(t.events) >= t.max {
		t.lost++
		return -1
	}
	t.events = append(t.events, ev)
	return len(t.events) - 1
}

// InstrumentPath attaches the tracer to p: every stage end that speaks
// NetIface has its Deliver wrapped in a span, and all four queues get
// depth/wait observers. Stage ends with other interface types (e.g.
// DISPLAY's video interface) are registered but not wrapped; the layer that
// knows their concrete type brackets them with StageEnter/StageExit. The
// wrapping is an interposer (core.Path.Interpose): a stage a resplice
// rebuilds is wrapped again and keeps its row, so trace IDs stay stable
// across a migration while the row's name follows the new router. label may
// be empty (the path's String is used). Re-instrumenting a pid is a no-op.
func (t *Tracer) InstrumentPath(p *core.Path, label string) {
	if t == nil || !t.enabled || p == nil {
		return
	}
	if _, dup := t.paths[p.PID]; dup {
		return
	}
	if label == "" {
		label = p.String()
	}
	pi := &PathInfo{PID: p.PID, Label: label}
	p.Interpose(func(i int, s *core.Stage) {
		for len(pi.Stages) <= i {
			pi.Stages = append(pi.Stages, &StageMetrics{tid: 1 + len(pi.Stages)})
		}
		sm := pi.Stages[i]
		sm.Stage = s.Router.Name
		for _, e := range s.End {
			ni, ok := e.(*core.NetIface)
			if !ok || ni == nil || ni.Deliver == nil {
				continue
			}
			orig := ni.Deliver
			ni.Deliver = func(ni *core.NetIface, m *msg.Msg) error {
				if !t.enabled {
					return orig(ni, m)
				}
				t.enter(pi, sm, p, m.Trace)
				err := orig(ni, m)
				t.exit(p)
				return err
			}
		}
	})
	for qi := range p.Q {
		t.hookQueue(pi, p, qi)
	}
	t.paths[p.PID] = pi
	t.order = append(t.order, pi)
}

func (t *Tracer) enter(pi *PathInfo, sm *StageMetrics, p *core.Path, msgID int64) {
	before := p.ExecCost()
	ev := t.emit(Event{
		TS:   t.eng.Now().Add(before),
		Kind: KindSpan,
		PID:  pi.PID,
		TID:  sm.tid,
		Name: sm.Stage,
		Msg:  msgID,
	})
	t.stack = append(t.stack, openSpan{ev: ev, sm: sm, p: p, before: before})
}

func (t *Tracer) exit(p *core.Path) {
	if len(t.stack) == 0 {
		return
	}
	fr := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	cum := p.ExecCost() - fr.before
	self := cum - fr.child
	if self < 0 {
		self = 0
	}
	fr.sm.Execs++
	fr.sm.CumCPU += cum
	fr.sm.SelfCPU += self
	if fr.ev >= 0 {
		t.events[fr.ev].Dur = cum
		t.events[fr.ev].Arg = int64(self)
	}
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += cum
	}
}

// StageEnter opens a span on p's named stage for layers that bracket
// deliveries the tracer cannot wrap generically (non-NetIface interface
// types). Pair with StageExit around the delivery. msgID may be 0.
func (t *Tracer) StageEnter(p *core.Path, stage string, msgID int64) {
	if t == nil || !t.enabled || p == nil {
		return
	}
	pi := t.paths[p.PID]
	if pi == nil {
		return
	}
	for _, sm := range pi.Stages {
		if sm.Stage == stage {
			t.enter(pi, sm, p, msgID)
			return
		}
	}
}

// StageExit closes the span opened by StageEnter. It is a no-op unless the
// innermost open span belongs to p, so an Enter that found no registered
// stage is safely unbalanced.
func (t *Tracer) StageExit(p *core.Path) {
	if t == nil || !t.enabled || len(t.stack) == 0 {
		return
	}
	if t.stack[len(t.stack)-1].p != p {
		return
	}
	t.exit(p)
}

// ExecSpan records one scheduler execution of the thread attached to pid.
// The appliance installs it as the scheduler's OnExec hook.
func (t *Tracer) ExecSpan(pid int64, thread string, start, end sim.Time, charged time.Duration) {
	if t == nil || !t.enabled {
		return
	}
	pi := t.paths[pid]
	if pi == nil {
		return
	}
	pi.Exec.Execs++
	pi.Exec.Charged += charged
	pi.Exec.Actual += end.Sub(start)
	if end == start && charged == 0 {
		return // empty poll; counted, not worth an event
	}
	t.emit(Event{TS: start, Dur: end.Sub(start), Kind: KindExec, PID: pid, TID: 0, Name: thread, Arg: int64(charged)})
}

var queueNames = [4]string{"in[FWD]", "out[FWD]", "in[BWD]", "out[BWD]"}

func (t *Tracer) hookQueue(pi *PathInfo, p *core.Path, qi int) {
	q := p.Q[qi]
	if q == nil {
		return
	}
	qm := &QueueMetrics{Queue: queueNames[qi], ring: make([]sim.Time, q.Max())}
	pi.Queues[qi] = qm
	q.OnEnqueue = func(item any, depth int) {
		if !t.enabled {
			return
		}
		now := t.eng.Now()
		var id int64
		if m, ok := item.(*msg.Msg); ok {
			if m.Trace == 0 {
				t.nextMsg++
				m.Trace = t.nextMsg
				// First sight of the message inside a traced path: if it
				// crossed a link to get here, account its airtime.
				if m.TxEnd > m.TxStart {
					pi.Wire.Frames++
					pi.Wire.Airtime += time.Duration(m.TxEnd - m.TxStart)
					t.emit(Event{
						TS:   sim.Time(m.TxStart),
						Dur:  time.Duration(m.TxEnd - m.TxStart),
						Kind: KindWire,
						PID:  pi.PID,
						TID:  1 + len(pi.Stages),
						Name: "WIRE",
						Msg:  m.Trace,
					})
				}
			}
			id = m.Trace
		}
		qm.Enqueued++
		if depth > qm.MaxDepth {
			qm.MaxDepth = depth
		}
		if qm.n < len(qm.ring) {
			qm.ring[(qm.head+qm.n)%len(qm.ring)] = now
			qm.n++
		}
		t.emit(Event{TS: now, Kind: KindEnqueue, PID: pi.PID, Name: qm.Queue, Msg: id, Arg: int64(depth)})
	}
	q.OnDequeue = func(item any, depth int) {
		if !t.enabled {
			return
		}
		now := t.eng.Now()
		if qm.n > 0 {
			enq := qm.ring[qm.head]
			qm.head = (qm.head + 1) % len(qm.ring)
			qm.n--
			qm.Wait.Observe(now.Sub(enq))
		}
		qm.Dequeued++
		var id int64
		if m, ok := item.(*msg.Msg); ok {
			id = m.Trace
		}
		t.emit(Event{TS: now, Kind: KindDequeue, PID: pi.PID, Name: qm.Queue, Msg: id, Arg: int64(depth)})
	}
	q.OnDrop = func(item any, cause core.DropCause) {
		if !t.enabled {
			return
		}
		if cause == core.DropShed {
			// A shed item was counted at enqueue; retire its wait-ring slot
			// so later dequeues match the right enqueue timestamps.
			qm.Shed++
			if qm.n > 0 {
				qm.head = (qm.head + 1) % len(qm.ring)
				qm.n--
			}
		} else {
			qm.Dropped++
		}
		t.emit(Event{TS: t.eng.Now(), Kind: KindDrop, PID: pi.PID, Name: qm.Queue, Arg: int64(q.Len())})
	}
}

// Hist is a log₂-bucketed latency histogram: bucket i holds observations
// whose nanosecond value has bit length i. Fixed buckets keep Observe
// allocation-free and the export deterministic.
type Hist struct {
	Count   int64
	Sum     time.Duration
	Max     time.Duration
	Buckets [64]int64
}

// Observe records d (negative values clamp to zero).
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Count++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
	h.Buckets[bitLen(uint64(d))]++
}

func bitLen(v uint64) int {
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	return n
}

// Mean reports the average observation, or 0 when empty.
func (h *Hist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile reports an upper bound for the q-quantile (0 < q ≤ 1): the upper
// edge of the bucket where the cumulative count crosses q, clamped to Max.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	if target > h.Count {
		target = h.Count
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			ub := time.Duration(1)<<uint(i) - 1
			if ub > h.Max {
				ub = h.Max
			}
			return ub
		}
	}
	return h.Max
}
