// Package sched implements Scout's execution model (§3.4): threads are the
// active entities; they execute paths non-preemptively under an arbitrary
// number of scheduling policies, each of which is allocated a share of the
// CPU. Two policies are provided, matching the paper: fixed-priority
// round-robin and earliest-deadline-first. A path imposes its scheduling
// requirements on a newly awakened thread through its wakeup callback.
//
// The scheduler runs on the virtual clock of package sim. Interrupt
// handlers (device receive processing, vsync) are modeled faithfully: they
// run logically at arrival time and their CPU cost is stolen from whatever
// thread execution is in progress by extending its completion time — the
// same effect hardware interrupts have on a running kernel.
package sched

import (
	"fmt"
	"time"

	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/sim"
)

// Body is one thread execution: it dequeues work, computes, and returns the
// virtual CPU consumed plus an optional completion callback that runs when
// that CPU time has elapsed (output enqueueing belongs there, since it
// happens at the end of a real execution). After completion the thread goes
// back to sleep; re-waking it (typically from the completion callback when
// the input queue is still non-empty) triggers the path wakeup callback
// again, which is how per-execution deadlines get recomputed. A body runs
// once per message, so it returns a callback built once for the thread, not
// a fresh closure per execution.
type Body func(t *Thread) (cpu time.Duration, complete func())

// State of a thread.
type State int

const (
	Sleeping State = iota
	Runnable
	Running
)

func (s State) String() string {
	switch s {
	case Sleeping:
		return "sleeping"
	case Runnable:
		return "runnable"
	default:
		return "running"
	}
}

// Thread is a Scout thread. It implements core.ThreadControl so path wakeup
// callbacks can adjust its policy, priority and deadline.
type Thread struct {
	Name string

	s        *Sched
	body     Body
	state    State
	ps       *policyState
	prio     int
	deadline sim.Time
	path     *core.Path
	wantWake bool
	// serveMore, on a ServeIncoming thread, wakes it while its input queue
	// holds work.
	serveMore func()

	cpu      time.Duration
	runs     int64
	fifo     int64    // FIFO arrival stamp within its run queue
	queuedAt sim.Time // when the thread last became runnable (watchdog input)
}

var _ core.ThreadControl = (*Thread)(nil)

// SetPolicy moves the thread to the named policy; it panics if the policy
// was never registered (a configuration error).
//
//scout:assert policy names are compile-time constants in wiring code, never runtime input
func (t *Thread) SetPolicy(policy string) {
	if t.ps.name == policy {
		return
	}
	ps, ok := t.s.policies[policy]
	if !ok {
		panic(fmt.Sprintf("sched: unknown policy %q", policy))
	}
	if t.state == Runnable {
		t.ps.queue.Remove(t)
	}
	t.ps = ps
	if t.state == Runnable {
		t.s.enqueue(t)
	}
}

// SetPriority sets the fixed priority (0 is most urgent).
func (t *Thread) SetPriority(prio int) {
	if t.prio == prio {
		return
	}
	requeue := t.state == Runnable
	if requeue {
		t.ps.queue.Remove(t)
	}
	t.prio = prio
	if requeue {
		t.s.enqueue(t)
	}
}

// SetDeadline sets the absolute virtual-time deadline in nanoseconds.
func (t *Thread) SetDeadline(deadline int64) {
	if int64(t.deadline) == deadline {
		return
	}
	requeue := t.state == Runnable
	if requeue {
		t.ps.queue.Remove(t)
	}
	t.deadline = sim.Time(deadline)
	if requeue {
		t.s.enqueue(t)
	}
}

// Policy reports the thread's current policy name.
func (t *Thread) Policy() string { return t.ps.name }

// Priority reports the thread's fixed priority.
func (t *Thread) Priority() int { return t.prio }

// Deadline reports the thread's absolute deadline.
func (t *Thread) Deadline() sim.Time { return t.deadline }

// State reports the thread's state.
func (t *Thread) State() State { return t.state }

// CPUTime reports total virtual CPU consumed by this thread.
func (t *Thread) CPUTime() time.Duration { return t.cpu }

// Runs reports how many executions the thread has completed or started.
func (t *Thread) Runs() int64 { return t.runs }

// AttachPath associates the thread with a path: CPU gets charged to the
// path, and the path's wakeup callback is invoked whenever the thread is
// awakened (§3.4).
func (t *Thread) AttachPath(p *core.Path) { t.path = p }

// Path returns the attached path, if any.
func (t *Thread) Path() *core.Path { return t.path }

// Wake makes the thread runnable. Waking a runnable thread is a no-op;
// waking a running thread re-queues it when its current execution
// completes. On a genuine sleep-to-runnable transition the path's wakeup
// callback runs first, so the path can impose its scheduling needs.
func (t *Thread) Wake() {
	switch t.state {
	case Running:
		t.wantWake = true
	case Runnable:
		// already queued
	case Sleeping:
		if t.path != nil && t.path.Wakeup != nil {
			t.path.Wakeup(t.path, t)
		}
		t.state = Runnable
		t.s.enqueue(t)
		t.s.maybeDispatch()
	}
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread(%s %s prio=%d)", t.Name, t.ps.name, t.prio)
}

// runQueue is the per-policy ready-queue discipline.
type runQueue interface {
	Push(t *Thread)
	Pop() *Thread
	Remove(t *Thread)
	Len() int
}

// Policy couples a ready-queue discipline with a CPU share.
type policyState struct {
	name  string
	queue runQueue
	share int
	used  time.Duration
}

// Stats is a snapshot of scheduler behaviour.
type Stats struct {
	Busy       time.Duration // CPU time consumed by thread executions
	IRQ        time.Duration // CPU time stolen by interrupt handlers
	Dispatches int64
	Interrupts int64
	PolicyUse  map[string]time.Duration
}

// Sched is the CPU scheduler. It is single-CPU, like the paper's testbed.
type Sched struct {
	eng      *sim.Engine
	policies map[string]*policyState
	order    []*policyState

	busy    bool
	current *Thread
	// completion retires the busy period in progress. The scheduler owns the
	// one event for its whole life: a dispatch arms it, and every interrupt
	// that steals CPU from the busy period moves it in place.
	completion sim.Event
	finishFn   func() // s.finishCurrent, bound once
	completeAt sim.Time
	onComplete func()
	curStart   sim.Time
	curCharged time.Duration

	fifoSeq int64
	stats   Stats

	// OnExec, when non-nil, is invoked as each thread execution retires,
	// with the dispatch time, the actual completion time (including any CPU
	// stolen by interrupt handlers that arrived during the execution), and
	// the CPU that was charged to the thread. The tracing subsystem uses the
	// actual-minus-charged gap to attribute interrupt steal to paths. Bare
	// interrupt-only busy periods (no current thread) do not fire it.
	OnExec func(t *Thread, p *core.Path, start, end sim.Time, charged time.Duration)

	// watchdog, when non-nil, observes dispatches and retirements to detect
	// deadline misses and starvation (see watchdog.go).
	watchdog *Watchdog
}

// New returns a scheduler driven by eng.
func New(eng *sim.Engine) *Sched {
	s := &Sched{eng: eng, policies: make(map[string]*policyState)}
	s.finishFn = s.finishCurrent
	return s
}

// Engine returns the simulation engine the scheduler runs on.
func (s *Sched) Engine() *sim.Engine { return s.eng }

// AddPolicy registers a scheduling policy with a CPU share (an arbitrary
// positive weight; the paper uses percentages). Policies must be registered
// before any thread uses them.
func (s *Sched) AddPolicy(name string, q runQueue, share int) {
	if share <= 0 {
		panic("sched: policy share must be positive")
	}
	if _, dup := s.policies[name]; dup {
		panic(fmt.Sprintf("sched: duplicate policy %q", name))
	}
	ps := &policyState{name: name, queue: q, share: share}
	s.policies[name] = ps
	s.order = append(s.order, ps)
}

// NewThread creates a sleeping thread under the named policy.
//
//scout:assert an unknown policy or nil body is path-creation miswiring, not runtime input
func (s *Sched) NewThread(name, policy string, body Body) *Thread {
	ps, ok := s.policies[policy]
	if !ok {
		panic(fmt.Sprintf("sched: unknown policy %q", policy))
	}
	if body == nil {
		panic("sched: nil thread body")
	}
	return &Thread{Name: name, s: s, body: body, ps: ps, state: Sleeping, deadline: sim.Never}
}

func (s *Sched) enqueue(t *Thread) {
	s.fifoSeq++
	t.fifo = s.fifoSeq
	t.queuedAt = s.eng.Now()
	t.ps.queue.Push(t)
}

// pickPolicy chooses the runnable policy furthest below its CPU share
// (deficit selection); among equally deserving policies, registration order
// wins. This realizes the paper's "percentage of CPU time per policy".
func (s *Sched) pickPolicy() *policyState {
	var best *policyState
	for _, ps := range s.order {
		if ps.queue.Len() == 0 {
			continue
		}
		if best == nil {
			best = ps
			continue
		}
		// Compare used/share without division: a is more deserving than
		// b when a.used * b.share < b.used * a.share.
		if ps.used*time.Duration(best.share) < best.used*time.Duration(ps.share) {
			best = ps
		}
	}
	return best
}

// maybeDispatch starts the next thread execution if the CPU is idle.
func (s *Sched) maybeDispatch() {
	if s.busy {
		return
	}
	ps := s.pickPolicy()
	if ps == nil {
		return
	}
	t := ps.queue.Pop()
	t.state = Running
	t.runs++
	s.busy = true
	s.current = t
	s.stats.Dispatches++
	if s.watchdog != nil {
		s.watchdog.noteDispatch(t, s.eng.Now())
	}

	cpu, complete := t.body(t)
	if cpu < 0 {
		cpu = 0
	}
	t.cpu += cpu
	ps.used += cpu
	s.stats.Busy += cpu
	if t.path != nil {
		t.path.AddCPU(cpu)
	}
	s.curStart = s.eng.Now()
	s.curCharged = cpu
	s.completeAt = s.eng.Now().Add(cpu)
	s.onComplete = complete
	s.eng.Rearm(&s.completion, s.completeAt, s.finishFn)
}

// finishCurrent retires the running execution (or a bare interrupt-only
// busy period, in which case there is no current thread).
func (s *Sched) finishCurrent() {
	t := s.current
	done := s.onComplete
	start, charged := s.curStart, s.curCharged
	s.busy = false
	s.current = nil
	s.onComplete = nil
	s.curCharged = 0

	if t != nil {
		t.state = Sleeping
		if s.OnExec != nil {
			s.OnExec(t, t.path, start, s.eng.Now(), charged)
		}
		if s.watchdog != nil {
			s.watchdog.noteFinish(t, s.eng.Now(), charged)
		}
	}
	if done != nil {
		done()
	}
	if t != nil && t.wantWake {
		t.wantWake = false
		t.Wake() // re-runs the path wakeup callback
	}
	s.maybeDispatch()
}

// Interrupt models an interrupt handler: fn runs now (handlers execute
// immediately on arrival), and its CPU cost is stolen from the CPU — if a
// thread execution is in progress its completion is pushed back by cost,
// otherwise the CPU is simply busy for cost before the next dispatch.
func (s *Sched) Interrupt(cost time.Duration, fn func()) {
	if cost < 0 {
		cost = 0
	}
	s.stats.Interrupts++
	s.stats.IRQ += cost
	if fn != nil {
		fn()
	}
	if s.busy {
		s.completeAt = s.completeAt.Add(cost)
		s.eng.Rearm(&s.completion, s.completeAt, s.finishFn)
		return
	}
	if cost == 0 {
		s.maybeDispatch()
		return
	}
	// Occupy the idle CPU for the handler's cost. The completion goes
	// through finishCurrent (with no current thread) so that further
	// interrupts extending this busy period behave uniformly.
	s.busy = true
	s.current = nil
	s.onComplete = nil
	s.completeAt = s.eng.Now().Add(cost)
	s.eng.Rearm(&s.completion, s.completeAt, s.finishFn)
}

// ServeIncoming creates and wires the standard worker thread for a path:
// it services the input queue for direction d, injecting one message per
// execution and charging the accumulated stage costs. Most routers that own
// a path end (ARP, ICMP, SHELL, TEST, HTTP) use exactly this shape.
func ServeIncoming(s *Sched, name, policy string, prio int, p *core.Path, d core.Direction) *Thread {
	q := p.Q[core.QIn(d)]
	th := s.NewThread(name, policy, func(t *Thread) (time.Duration, func()) {
		if p.Paused() {
			// A paused path retains its queued work; Resume refires the
			// queue's NotEmpty hook to wake this thread back up.
			return 0, nil
		}
		item := q.Dequeue()
		if item == nil {
			return 0, nil
		}
		m := item.(*msg.Msg)
		if err := p.Inject(d, m); err != nil {
			// Stages free the message on their error paths.
			_ = err
		}
		return p.TakeExecCost(), t.serveMore
	})
	th.SetPriority(prio)
	th.AttachPath(p)
	// Built once per thread, serveMore is both the completion of every
	// execution and the queue's arrival hook (which only ever fires on a
	// non-empty queue, so the check changes nothing there).
	th.serveMore = func() {
		if !q.Empty() {
			th.Wake()
		}
	}
	q.NotEmpty = th.serveMore
	return th
}

// Stats returns a snapshot of scheduler counters.
func (s *Sched) Stats() Stats {
	st := s.stats
	st.PolicyUse = make(map[string]time.Duration, len(s.order))
	for _, ps := range s.order {
		st.PolicyUse[ps.name] = ps.used
	}
	return st
}
