package core

import (
	"errors"
	"fmt"
	"time"

	"scout/internal/attr"
)

// ThreadControl is the subset of the scheduler's thread API a path's wakeup
// callback may use to impose the path's scheduling requirements on a newly
// awakened thread (§3.4). It is declared here, rather than importing the
// scheduler, so core stays scheduler-agnostic.
type ThreadControl interface {
	// SetPolicy selects the scheduling policy by name ("rr", "edf", ...).
	SetPolicy(policy string)
	// SetPriority sets the fixed priority for priority-based policies
	// (lower number = more urgent, like the paper's round-robin levels).
	SetPriority(prio int)
	// SetDeadline sets the absolute virtual-time deadline in nanoseconds
	// for deadline-based policies.
	SetDeadline(deadline int64)
}

// WakeupFunc is the paper's wakeup function pointer: invoked when a thread
// is awakened to execute in path p so the path can adjust the thread's
// policy and priority.
type WakeupFunc func(p *Path, t ThreadControl)

// Stage is one router's contribution to a path (§3.2): a fixed routing
// decision between a pair of services, carrying up to two interfaces (one
// per direction) and the establish/destroy hooks run during path creation
// and teardown.
type Stage struct {
	Path   *Path
	Router *Router
	// EnterService is the service index the path enters through
	// (NoService for the first stage).
	EnterService int
	// End holds the stage's interfaces: End[FWD] receives messages
	// traveling in the creation direction, End[BWD] the reverse. Extreme
	// stages may have only one.
	End [2]Iface
	// Establish, if non-nil, runs after the whole path object exists
	// (creation phase 3), so it may depend on the entire path.
	Establish func(s *Stage, a *attr.Attrs) error
	// Destroy, if non-nil, runs at path deletion, in reverse creation
	// order.
	Destroy func(s *Stage)
	// Fuse, if non-nil, runs during the fusion phase of CreatePath (after
	// establish, before transformation rules): the stage may swap its
	// Deliver pointers for specialized implementations that pre-compute
	// header offsets and skip work the device-edge classifier already did.
	// A fused Deliver must be behaviour-identical for every message the
	// path can legally receive.
	Fuse func(s *Stage)
	// Data holds router-specific per-stage state (reassembly buffers,
	// decode contexts, ...).
	Data any
}

// SetIface installs i as the stage's interface for direction d and binds the
// interface back to the stage.
func (s *Stage) SetIface(d Direction, i Iface) {
	s.End[d] = i
	if i != nil {
		i.Base().Stage = s
	}
}

func (s *Stage) String() string {
	if s.Router == nil {
		return "stage(?)"
	}
	return fmt.Sprintf("stage(%s)", s.Router.Name)
}

// Path is the explicit path object (§3.2): the stages at its extreme ends,
// a path id, the wakeup callback, four queues, and an attribute set through
// which stages share information anonymously.
type Path struct {
	PID   int64
	End   [2]*Stage
	Q     [4]*Queue
	Attrs *attr.Attrs
	// Wakeup, when non-nil, is called by the scheduler whenever a thread
	// is awakened to execute in this path.
	Wakeup WakeupFunc

	graph  *Graph
	stages []*Stage
	dead   bool
	fused  bool

	paused   bool
	pausedAt string // boundary router name, for reporting

	ext *pathExt // rules applied and interposers; nil until first use

	// Resource accounting (§4.4). Memory is charged during creation and
	// establishment; CPU is charged by the scheduler per execution.
	memBytes int64
	memLimit int64 // 0 = unlimited
	cpu      time.Duration
	execEWMA time.Duration // smoothed per-execution CPU time
	execN    int64

	// Msgs counts messages that completed traversal per direction;
	// devices and end stages bump it.
	Msgs [2]int64

	execCost time.Duration

	// EarlyDiscard, when non-nil, is consulted by the device driver at
	// interrupt time after classification: returning true drops the
	// message before it is queued, let alone processed. It implements
	// §4.4's "drop packets of skipped frames as soon as they arrive at
	// the network adapter". The filter must only peek at the message.
	EarlyDiscard func(m any) bool
	// EarlyDiscards counts messages dropped by the filter.
	EarlyDiscards int64

	// OnOverload, when non-nil, receives the scheduler watchdog's overload
	// signals for this path — EDF deadline misses, round-robin starvation,
	// admission revocation — so the path can degrade itself instead of
	// silently missing (§4.4). amount is the magnitude (e.g. how late the
	// execution finished).
	OnOverload func(p *Path, kind OverloadKind, amount time.Duration)

	overloads [overloadKinds]int64
	onDestroy []func(*Path)
}

// OverloadKind classifies the overload signals routed to Path.OnOverload.
type OverloadKind uint8

const (
	// OverloadDeadlineMiss: an execution retired past its EDF deadline.
	OverloadDeadlineMiss OverloadKind = iota
	// OverloadStarvation: a round-robin thread waited longer than the
	// watchdog's starvation threshold before being dispatched.
	OverloadStarvation
	// OverloadRevocation: the admission controller revoked (part of) the
	// path's grant because the online fit says the system is overcommitted.
	OverloadRevocation
	// OverloadLinkDown: the device under the path's lower stages lost its
	// link (netdev's failure detector fired); the migration subsystem
	// reacts by resplicing the path onto a healthy device.
	OverloadLinkDown

	overloadKinds = 4
)

func (k OverloadKind) String() string {
	switch k {
	case OverloadDeadlineMiss:
		return "deadline-miss"
	case OverloadStarvation:
		return "starvation"
	case OverloadRevocation:
		return "revocation"
	default:
		return "link-down"
	}
}

// NotifyOverload counts an overload signal against the path and invokes its
// degradation callback. Signals against a dead path are dropped.
func (p *Path) NotifyOverload(kind OverloadKind, amount time.Duration) {
	if p.dead || int(kind) >= overloadKinds {
		return
	}
	p.overloads[kind]++
	if p.OnOverload != nil {
		p.OnOverload(p, kind, amount)
	}
}

// Overloads reports how many signals of the given kind the path received.
func (p *Path) Overloads(kind OverloadKind) int64 {
	if int(kind) >= overloadKinds {
		return 0
	}
	return p.overloads[kind]
}

// AddDestroyHook registers fn to run during Destroy, after the stage destroy
// functions, in registration order. Subsystems outside core (tracing,
// admission, degradation) use it to unhook their per-path state exactly once.
func (p *Path) AddDestroyHook(fn func(*Path)) {
	if fn != nil {
		p.onDestroy = append(p.onDestroy, fn)
	}
}

// ChargeExec adds d to the cost of the execution currently in progress;
// stages call it as they process a message, and the thread body collects the
// total via TakeExecCost to report it to the scheduler.
func (p *Path) ChargeExec(d time.Duration) { p.execCost += d }

// TakeExecCost returns and resets the accumulated execution cost.
func (p *Path) TakeExecCost() time.Duration {
	c := p.execCost
	p.execCost = 0
	return c
}

// ExecCost reads the execution cost accumulated since the last TakeExecCost
// without resetting it. The tracing subsystem samples it on stage entry and
// exit to attribute cost to individual stages.
func (p *Path) ExecCost() time.Duration { return p.execCost }

// IncomingDir reports the direction a message travels when it enters the
// path at the stage owned by the named router: BWD if that router
// contributed the last stage, FWD if the first. Device routers use it to
// pick the right input queue for arriving data.
func (p *Path) IncomingDir(router string) (Direction, bool) {
	if p.End[1] != nil && p.End[1].Router != nil && p.End[1].Router.Name == router {
		return BWD, true
	}
	if p.End[0] != nil && p.End[0].Router != nil && p.End[0].Router.Name == router {
		return FWD, true
	}
	return FWD, false
}

// EnqueueIncoming places m — data that just arrived at the named end router
// (classified by demux) — into the appropriate input queue. It reports false
// when the queue is full, in which case the caller discards the work early
// (§1: "discard unnecessary work early").
func (p *Path) EnqueueIncoming(router string, m any) bool {
	d, ok := p.IncomingDir(router)
	if !ok {
		return false
	}
	return p.Q[QIn(d)].Enqueue(m)
}

// IncomingQueue resolves the input queue EnqueueIncoming would use, or nil
// when the named router owns neither end. Burst delivery resolves the queue
// once per run of same-path frames and enqueues directly, instead of
// repeating the router-name comparison per frame.
func (p *Path) IncomingQueue(router string) *Queue {
	d, ok := p.IncomingDir(router)
	if !ok {
		return nil
	}
	return p.Q[QIn(d)]
}

// ErrMemLimit is returned by ChargeMemory when a path would exceed the
// memory the admission policy granted it.
var ErrMemLimit = errors.New("core: path memory limit exceeded")

// ErrPathDead is returned when operating on a deleted path.
var ErrPathDead = errors.New("core: path deleted")

// defaultQueueLen sizes path queues when PA_QUEUELEN is absent.
const defaultQueueLen = 32

// CreatePath implements the paper's pathCreate(r, a): phase 1 walks
// createStage from router r while the invariants in a admit a unique routing
// decision; phase 2 links the resulting stages and interfaces into a path
// object; phase 3 runs the establish functions in creation order; phase 4
// applies the graph's transformation rules until no guard fires.
func (g *Graph) CreatePath(r *Router, a *attr.Attrs) (*Path, error) {
	if r == nil {
		return nil, errors.New("core: CreatePath on nil router")
	}
	if a == nil {
		a = attr.New()
	}
	stages, err := walkStages("createStage", &NextHop{Router: r, Service: NoService}, a, 0)
	if err != nil {
		return nil, err
	}

	// Phase 2: combine stages into a path object.
	g.nextPID++
	p := &Path{
		PID:      g.nextPID,
		graph:    g,
		stages:   stages,
		Attrs:    a.Clone(),
		memLimit: int64(a.IntDefault(attr.MemLimit, 0)),
	}
	p.End[0], p.End[1] = stages[0], stages[len(stages)-1]
	qlen := a.IntDefault(attr.QueueLen, defaultQueueLen)
	for i := range p.Q {
		p.Q[i] = NewQueue(qlen)
	}
	if err := p.ChargeMemory(p.footprint()); err != nil {
		destroyStages(stages)
		return nil, err
	}
	p.wire()

	// Phase 3: establish, in creation order.
	for _, st := range stages {
		if st.Establish == nil {
			continue
		}
		if err := st.Establish(st, a); err != nil {
			p.Delete()
			return nil, fmt.Errorf("core: establish %s: %w", st.Router.Name, err)
		}
	}

	// Phase 3.5: fuse the delivery chain. Like phase 4 this is semantically
	// a no-op — it caches the per-hop dispatch decisions (type assertions,
	// nil checks) that cannot change for the lifetime of the path, and lets
	// stages install specialized Deliver implementations. It runs before the
	// transformation rules so every interposer wraps the fused pointers.
	if !g.noFuse {
		p.fuse(stages)
	}

	// Phase 4: apply global transformation rules (§3.3). Semantically a
	// no-op; each rule may only improve the path.
	if err := g.applyRules(p); err != nil {
		p.Delete()
		return nil, err
	}
	return p, nil
}

// fuse caches each interface's next/back neighbour when it is a ready
// NetIface (so DeliverNext/DeliverBack skip dynamic dispatch) and runs the
// Fuse hooks of the hooked stages: a resplice passes only the fresh ones.
// Neighbours that are absent, non-net, or deliverless keep the generic
// dispatch with its exact error behaviour.
func (p *Path) fuse(hooked []*Stage) {
	asFast := func(i Iface) *NetIface {
		ni, ok := i.(*NetIface)
		if !ok || ni == nil || ni.Deliver == nil {
			return nil
		}
		return ni
	}
	for _, st := range p.stages {
		for d := 0; d < 2; d++ {
			ni, ok := st.End[d].(*NetIface)
			if !ok || ni == nil {
				continue
			}
			ni.fastNext = asFast(ni.Next)
			ni.fastBack = asFast(ni.Back)
		}
	}
	for _, st := range hooked {
		if st.Fuse != nil {
			st.Fuse(st)
		}
	}
	p.fused = true
}

// Fused reports whether the fusion phase ran on this path.
func (p *Path) Fused() bool { return p.fused }

// PauseAt quiesces the path at the boundary of the named router's stage: the
// serving threads (scheduler workers, the display pacer) check Paused before
// dequeuing, so every queued message — and the fbuf reference it carries —
// stays exactly where it is. Arriving frames keep enqueuing normally; only
// delivery stops. The chaos conservation audits hold across the pause
// because nothing is shed or freed. Pausing a dead path fails; pausing an
// already-paused path just moves the recorded boundary.
func (p *Path) PauseAt(router string) error {
	if p.dead {
		return ErrPathDead
	}
	if p.StageOf(router) == nil {
		return fmt.Errorf("core: pause: no stage %q in %s", router, p)
	}
	p.paused = true
	p.pausedAt = router
	return nil
}

// Paused reports whether the path is quiesced.
func (p *Path) Paused() bool { return p.paused }

// PausedAt reports the boundary router recorded by PauseAt ("" when not
// paused).
func (p *Path) PausedAt() string { return p.pausedAt }

// Resume lifts a pause and refires the input queues' NotEmpty hooks so the
// serving threads pick the retained work back up. Resuming a dead or
// unpaused path is a no-op.
func (p *Path) Resume() {
	if p.dead || !p.paused {
		return
	}
	p.paused = false
	p.pausedAt = ""
	for _, qi := range [...]int{QInFWD, QInBWD} {
		q := p.Q[qi]
		if q != nil && !q.Empty() && q.NotEmpty != nil {
			q.NotEmpty()
		}
	}
}

// Resplice rebuilds the path below the named boundary router against the
// routing decisions the attribute set a admits now — the live-migration
// primitive (ROADMAP item 5): the retained upper stages, the path object,
// its queues and their contents all survive; only the lower stages (for the
// video path: UDP→IP→ETH) are torn down and re-created, typically against a
// different device selected through PA_MPATH_LINK.
//
// The caller is expected to hold the path paused at the boundary (PauseAt),
// and owns the control-plane fan-out that core cannot do: invalidating the
// old and new devices' flow caches and nudging the transport (see
// internal/splice). a nil a resplices against p.Attrs.
//
// Ordering matters: the retired stages are destroyed *first*, in reverse
// creation order, so their external registrations (UDP's demux binding)
// are released before the fresh stages re-claim them. The phase-2 wiring
// pass then re-runs over the whole path — it is idempotent for retained
// stages — and, if the path was fused, fusion re-runs so the retained
// boundary stage's cached fast pointers aim at the new chain. Last, every
// interposer runs on the fresh stages (see Interpose).
//
// On error the path is left with its upper stages intact but the lower
// chain incomplete; the only safe continuation is Destroy.
func (p *Path) Resplice(boundary string, a *attr.Attrs) error {
	if p.dead {
		return ErrPathDead
	}
	idx := -1
	for i, s := range p.stages {
		if s.Router != nil && s.Router.Name == boundary {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: resplice: no stage %q in %s", boundary, p)
	}
	if idx == len(p.stages)-1 {
		return fmt.Errorf("core: resplice: %q is the final stage, nothing below it", boundary)
	}
	if a == nil {
		a = p.Attrs
	}
	old := p.stages[idx+1:]
	destroyStages(old)

	// Re-walk the routing decisions from the first retired router, exactly
	// like CreatePath phase 1.
	fresh, err := walkStages("resplice", &NextHop{Router: old[0].Router, Service: old[0].EnterService}, a, idx+1)
	if err != nil {
		return err
	}
	p.stages = append(p.stages[:idx+1], fresh...)
	p.End[1] = p.stages[len(p.stages)-1]
	p.wire()

	for _, st := range fresh {
		if st.Establish == nil {
			continue
		}
		if err := st.Establish(st, a); err != nil {
			return fmt.Errorf("core: resplice establish %s: %w", st.Router.Name, err)
		}
	}
	if p.fused {
		p.fuse(fresh)
	}
	if p.ext != nil {
		for _, fn := range p.ext.interposers {
			for i := idx + 1; i < len(p.stages); i++ {
				fn(i, p.stages[i])
			}
		}
	}
	return nil
}

// maxStages bounds a path's length: a path is a *linear* flow; runaway
// creation is a bug.
const maxStages = 64

// walkStages is phase 1 of path creation: it runs createStage from hop while
// the invariants in a admit a unique routing decision. have counts the stages
// the path already owns (a resplice keeps its upper ones) and op names the
// caller in errors. A failed walk destroys what it created.
func walkStages(op string, hop *NextHop, a *attr.Attrs, have int) ([]*Stage, error) {
	var stages []*Stage
	for {
		st, next, err := hop.Router.Impl.CreateStage(hop.Router, hop.Service, a)
		if err != nil {
			destroyStages(stages)
			return nil, fmt.Errorf("core: %s %s: %w", op, hop.Router.Name, err)
		}
		if st == nil {
			destroyStages(stages)
			return nil, fmt.Errorf("core: %s %s returned no stage", op, hop.Router.Name)
		}
		st.Router = hop.Router
		st.EnterService = hop.Service
		stages = append(stages, st)
		if next == nil {
			return stages, nil
		}
		if have+len(stages) >= maxStages {
			destroyStages(stages)
			return nil, fmt.Errorf("core: %s exceeds %d stages (cycle in routing decisions?)", op, maxStages)
		}
		hop = next
	}
}

// wire is phase 2's linking pass: every stage points at the path and every
// interface at its neighbours'. Idempotent, so a resplice re-runs it over the
// retained stages too.
func (p *Path) wire() {
	for i, st := range p.stages {
		st.Path = p
		if fwd := st.End[FWD]; fwd != nil {
			if i+1 < len(p.stages) {
				fwd.Base().Next = p.stages[i+1].End[FWD]
			}
			if i > 0 {
				fwd.Base().Back = p.stages[i-1].End[BWD]
			}
		}
		if bwd := st.End[BWD]; bwd != nil {
			if i > 0 {
				bwd.Base().Next = p.stages[i-1].End[BWD]
			}
			if i+1 < len(p.stages) {
				bwd.Base().Back = p.stages[i+1].End[FWD]
			}
		}
	}
}

func destroyStages(stages []*Stage) {
	for i := len(stages) - 1; i >= 0; i-- {
		if stages[i].Destroy != nil {
			stages[i].Destroy(stages[i])
		}
	}
}

// footprint estimates the base memory of the path object, stages and queues,
// charged against the admission grant (§4.4).
func (p *Path) footprint() int64 {
	const pathOverhead = 300 // paper: path object ≈ 300 bytes
	const stageOverhead = 150
	q := int64(0)
	for _, qu := range p.Q {
		q += int64(qu.Max()) * 16
	}
	return pathOverhead + int64(len(p.stages))*stageOverhead + q
}

// Delete tears the path down; it is a synonym for Destroy, kept because the
// paper calls the operation pathDelete (§3.3).
func (p *Path) Delete() { p.Destroy() }

// freer is what queued items implement when they hold a buffer reference
// that must be released on shed (msg.Msg does; display frames do not).
type freer interface{ Free() }

// Destroy tears the path down completely and idempotently: stage destroy
// functions run in reverse creation order, the path's bindings leave every
// flow cache registered on its graph, every queue is drained with each
// queued message's buffer reference released (a queued item is an fbuf ref
// the path still owns — nilling it would leak the buffer), the destroy hooks
// registered by outside subsystems run, the queue hooks are unhooked, and
// the memory charged against the admission grant is released. Destroying a
// dead path is a no-op; the Scout infrastructure never deletes paths
// implicitly (§3.3), so routers own this call.
func (p *Path) Destroy() {
	if p.dead {
		return
	}
	p.dead = true
	// A destroy racing a migration wins: lift the pause (so Paused readers
	// see a dead, unpaused path) and fall through to the drain below, which
	// releases the fbuf references the pause retained in the queues.
	p.paused = false
	p.pausedAt = ""
	destroyStages(p.stages)
	if p.graph != nil {
		for _, fc := range p.graph.flowCaches {
			fc.InvalidatePath(p)
		}
	}
	for _, q := range p.Q {
		if q == nil {
			continue
		}
		for _, item := range q.Drain() {
			if f, ok := item.(freer); ok {
				f.Free()
			}
		}
		q.NotEmpty, q.Drained = nil, nil
		q.OnEnqueue, q.OnDequeue, q.OnDrop = nil, nil, nil
	}
	hooks := p.onDestroy
	p.onDestroy = nil
	for _, fn := range hooks {
		fn(p)
	}
	p.EarlyDiscard = nil
	p.OnOverload = nil
	p.memBytes = 0
}

// Dead reports whether Delete has run.
func (p *Path) Dead() bool { return p.dead }

// Stages returns the path's stages in creation order. The slice is owned by
// the path; callers must not mutate it.
func (p *Path) Stages() []*Stage { return p.stages }

// Len reports the number of stages — the paper's path "length".
func (p *Path) Len() int { return len(p.stages) }

// StageOf returns the (first) stage contributed by the named router, or nil.
func (p *Path) StageOf(router string) *Stage {
	for _, s := range p.stages {
		if s.Router != nil && s.Router.Name == router {
			return s
		}
	}
	return nil
}

// Graph returns the router graph that created the path.
func (p *Path) Graph() *Graph { return p.graph }

// ChargeMemory records bytes of memory consumed on behalf of the path;
// negative amounts release. It fails when the admission grant would be
// exceeded, which aborts path creation (§4.4).
func (p *Path) ChargeMemory(bytes int64) error {
	if p.memLimit > 0 && p.memBytes+bytes > p.memLimit {
		return ErrMemLimit
	}
	p.memBytes += bytes
	return nil
}

// MemoryBytes reports the memory currently charged to the path.
func (p *Path) MemoryBytes() int64 { return p.memBytes }

// AddCPU charges d of (virtual) CPU time to the path and folds it into the
// per-execution EWMA the deadline and admission machinery read (§4.2, §4.4).
func (p *Path) AddCPU(d time.Duration) {
	p.cpu += d
	p.execN++
	if p.execEWMA == 0 {
		p.execEWMA = d
	} else {
		// EWMA with alpha = 1/8, the classic TCP srtt gain.
		p.execEWMA += (d - p.execEWMA) / 8
	}
}

// CPUTime reports the total CPU time charged to the path.
func (p *Path) CPUTime() time.Duration { return p.cpu }

// ExecEWMA reports the smoothed per-execution CPU time ("average time spent
// processing each packet", §4.2).
func (p *Path) ExecEWMA() time.Duration { return p.execEWMA }

// Executions reports how many executions have been charged.
func (p *Path) Executions() int64 { return p.execN }

func (p *Path) String() string {
	s := fmt.Sprintf("path#%d[", p.PID)
	for i, st := range p.stages {
		if i > 0 {
			s += "→"
		}
		s += st.Router.Name
	}
	return s + "]"
}
