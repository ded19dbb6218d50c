package sched

import (
	"fmt"
	"testing"
	"time"

	"scout/internal/attr"
	"scout/internal/core"
	"scout/internal/msg"
	"scout/internal/sim"
)

func newSched() (*sim.Engine, *Sched) {
	eng := sim.New(1)
	s := New(eng)
	AddDefaultPolicies(s, 8, 50, 50)
	return eng, s
}

// oneShot returns a body that consumes cpu and logs its start time.
func oneShot(eng *sim.Engine, log *[]string, name string, cpu time.Duration) Body {
	return func(t *Thread) (time.Duration, func()) {
		*log = append(*log, fmt.Sprintf("%s@%v", name, eng.Now().Duration()))
		return cpu, nil
	}
}

func TestRRPriorityOrder(t *testing.T) {
	eng, s := newSched()
	var log []string
	lo := s.NewThread("lo", PolicyRR, oneShot(eng, &log, "lo", time.Millisecond))
	hi := s.NewThread("hi", PolicyRR, oneShot(eng, &log, "hi", time.Millisecond))
	lo.SetPriority(3)
	hi.SetPriority(0)
	// Wake both before any dispatch completes: schedule from an event.
	eng.At(0, func() { lo.Wake(); hi.Wake() })
	eng.Run()
	// lo was woken first and dispatch happens immediately (CPU idle), so
	// lo runs first; but after it completes, hi must run before any
	// re-queued lo.
	if len(log) != 2 || log[0] != "lo@0s" || log[1] != "hi@1ms" {
		t.Fatalf("log = %v", log)
	}
}

func TestRRPriorityPreferenceWhenQueued(t *testing.T) {
	eng, s := newSched()
	var log []string
	blocker := s.NewThread("blk", PolicyRR, oneShot(eng, &log, "blk", time.Millisecond))
	lo := s.NewThread("lo", PolicyRR, oneShot(eng, &log, "lo", time.Millisecond))
	hi := s.NewThread("hi", PolicyRR, oneShot(eng, &log, "hi", time.Millisecond))
	lo.SetPriority(3)
	hi.SetPriority(1)
	eng.At(0, func() {
		blocker.Wake() // occupies CPU
		lo.Wake()      // queued
		hi.Wake()      // queued, higher priority
	})
	eng.Run()
	want := []string{"blk@0s", "hi@1ms", "lo@2ms"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestRRFIFOWithinLevel(t *testing.T) {
	eng, s := newSched()
	var log []string
	blk := s.NewThread("blk", PolicyRR, oneShot(eng, &log, "blk", time.Millisecond))
	a := s.NewThread("a", PolicyRR, oneShot(eng, &log, "a", time.Millisecond))
	b := s.NewThread("b", PolicyRR, oneShot(eng, &log, "b", time.Millisecond))
	eng.At(0, func() { blk.Wake(); a.Wake(); b.Wake() })
	eng.Run()
	want := []string{"blk@0s", "a@1ms", "b@2ms"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestEDFOrder(t *testing.T) {
	eng, s := newSched()
	var log []string
	blk := s.NewThread("blk", PolicyEDF, oneShot(eng, &log, "blk", time.Millisecond))
	late := s.NewThread("late", PolicyEDF, oneShot(eng, &log, "late", time.Millisecond))
	soon := s.NewThread("soon", PolicyEDF, oneShot(eng, &log, "soon", time.Millisecond))
	never := s.NewThread("never", PolicyEDF, oneShot(eng, &log, "never", time.Millisecond))
	eng.At(0, func() {
		blk.Wake()
		late.SetDeadline(int64(20 * time.Millisecond))
		soon.SetDeadline(int64(5 * time.Millisecond))
		never.Wake() // no deadline: runs last
		late.Wake()
		soon.Wake()
	})
	eng.Run()
	want := []string{"blk@0s", "soon@1ms", "late@2ms", "never@3ms"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestEDFDeadlineChangeWhileQueued(t *testing.T) {
	eng, s := newSched()
	var log []string
	blk := s.NewThread("blk", PolicyEDF, oneShot(eng, &log, "blk", time.Millisecond))
	a := s.NewThread("a", PolicyEDF, oneShot(eng, &log, "a", time.Millisecond))
	b := s.NewThread("b", PolicyEDF, oneShot(eng, &log, "b", time.Millisecond))
	eng.At(0, func() {
		blk.Wake()
		a.SetDeadline(int64(10 * time.Millisecond))
		b.SetDeadline(int64(20 * time.Millisecond))
		a.Wake()
		b.Wake()
		b.SetDeadline(int64(1 * time.Millisecond)) // overtakes a while queued
	})
	eng.Run()
	want := []string{"blk@0s", "b@1ms", "a@2ms"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestNonPreemption(t *testing.T) {
	eng, s := newSched()
	var log []string
	long := s.NewThread("long", PolicyRR, oneShot(eng, &log, "long", 10*time.Millisecond))
	hi := s.NewThread("hi", PolicyRR, oneShot(eng, &log, "hi", time.Millisecond))
	hi.SetPriority(0)
	long.SetPriority(7)
	eng.At(0, func() { long.Wake() })
	eng.At(sim.Time(2*time.Millisecond), func() { hi.Wake() })
	eng.Run()
	// hi arrives mid-execution but must wait: non-preemptive.
	want := []string{"long@0s", "hi@10ms"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestWakeWhileRunningRequeues(t *testing.T) {
	eng, s := newSched()
	runs := 0
	var th *Thread
	th = s.NewThread("t", PolicyRR, func(t *Thread) (time.Duration, func()) {
		runs++
		return time.Millisecond, nil
	})
	eng.At(0, func() {
		th.Wake()
	})
	eng.At(sim.Time(500*time.Microsecond), func() { th.Wake() }) // while running
	eng.Run()
	if runs != 2 {
		t.Fatalf("runs = %d, want 2 (wake-while-running must requeue)", runs)
	}
}

func TestWakeRunnableIsNoop(t *testing.T) {
	eng, s := newSched()
	runs := 0
	blk := s.NewThread("blk", PolicyRR, func(*Thread) (time.Duration, func()) { return time.Millisecond, nil })
	th := s.NewThread("t", PolicyRR, func(*Thread) (time.Duration, func()) { runs++; return 0, nil })
	eng.At(0, func() { blk.Wake(); th.Wake(); th.Wake(); th.Wake() })
	eng.Run()
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
}

func TestCompletionCallbackTiming(t *testing.T) {
	eng, s := newSched()
	var completedAt sim.Time = -1
	th := s.NewThread("t", PolicyRR, func(*Thread) (time.Duration, func()) {
		return 7 * time.Millisecond, func() { completedAt = eng.Now() }
	})
	eng.At(0, func() { th.Wake() })
	eng.Run()
	if completedAt != sim.Time(7*time.Millisecond) {
		t.Fatalf("completed at %v, want 7ms", completedAt)
	}
}

func TestInterruptExtendsRunningExecution(t *testing.T) {
	eng, s := newSched()
	var completedAt sim.Time
	var irqAt sim.Time
	th := s.NewThread("t", PolicyRR, func(*Thread) (time.Duration, func()) {
		return 10 * time.Millisecond, func() { completedAt = eng.Now() }
	})
	eng.At(0, func() { th.Wake() })
	eng.At(sim.Time(3*time.Millisecond), func() {
		s.Interrupt(2*time.Millisecond, func() { irqAt = eng.Now() })
	})
	eng.Run()
	if irqAt != sim.Time(3*time.Millisecond) {
		t.Fatalf("irq handler ran at %v, want immediately at 3ms", irqAt)
	}
	if completedAt != sim.Time(12*time.Millisecond) {
		t.Fatalf("execution completed at %v, want 12ms (10ms + 2ms stolen)", completedAt)
	}
}

func TestInterruptOnIdleCPUDelaysDispatch(t *testing.T) {
	eng, s := newSched()
	var started sim.Time
	th := s.NewThread("t", PolicyRR, func(*Thread) (time.Duration, func()) {
		started = eng.Now()
		return time.Millisecond, nil
	})
	eng.At(0, func() {
		s.Interrupt(4*time.Millisecond, nil)
		th.Wake()
	})
	eng.Run()
	if started != sim.Time(4*time.Millisecond) {
		t.Fatalf("dispatch at %v, want 4ms (after irq cost)", started)
	}
}

func TestPolicySharesSplitCPU(t *testing.T) {
	eng := sim.New(1)
	s := New(eng)
	s.AddPolicy("a", NewRRQueue(1), 75)
	s.AddPolicy("b", NewRRQueue(1), 25)
	mk := func(policy string) *Thread {
		var th *Thread
		th = s.NewThread(policy, policy, func(*Thread) (time.Duration, func()) {
			return time.Millisecond, func() { th.Wake() } // always busy
		})
		return th
	}
	ta, tb := mk("a"), mk("b")
	eng.At(0, func() { ta.Wake(); tb.Wake() })
	eng.RunUntil(sim.Time(400 * time.Millisecond))
	st := s.Stats()
	ua, ub := st.PolicyUse["a"], st.PolicyUse["b"]
	ratio := float64(ua) / float64(ua+ub)
	if ratio < 0.70 || ratio > 0.80 {
		t.Fatalf("policy a got %.2f of CPU, want ≈0.75 (a=%v b=%v)", ratio, ua, ub)
	}
}

func TestIdlePolicyYieldsWholeCPU(t *testing.T) {
	eng := sim.New(1)
	s := New(eng)
	s.AddPolicy("a", NewRRQueue(1), 50)
	s.AddPolicy("b", NewRRQueue(1), 50)
	var th *Thread
	th = s.NewThread("a", "a", func(*Thread) (time.Duration, func()) {
		return time.Millisecond, func() { th.Wake() }
	})
	eng.At(0, func() { th.Wake() })
	eng.RunUntil(sim.Time(100 * time.Millisecond))
	st := s.Stats()
	if st.PolicyUse["a"] < 99*time.Millisecond {
		t.Fatalf("runnable policy starved with other policy idle: %v", st.PolicyUse["a"])
	}
}

func TestPathWakeupCallbackSetsDeadline(t *testing.T) {
	eng, s := newSched()
	g := core.NewGraph()
	r := g.Add("R", stubImpl{})
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	p, err := g.CreatePath(r, attr.New())
	if err != nil {
		t.Fatal(err)
	}
	wakeups := 0
	p.Wakeup = func(p *core.Path, tc core.ThreadControl) {
		wakeups++
		tc.SetPolicy(PolicyEDF)
		tc.SetDeadline(int64(5 * time.Millisecond))
	}
	var th *Thread
	th = s.NewThread("video", PolicyRR, func(*Thread) (time.Duration, func()) {
		return time.Millisecond, nil
	})
	th.AttachPath(p)
	eng.At(0, func() { th.Wake() })
	eng.Run()
	if wakeups != 1 {
		t.Fatalf("wakeup callback ran %d times, want 1", wakeups)
	}
	if th.Policy() != PolicyEDF || th.Deadline() != sim.Time(5*time.Millisecond) {
		t.Fatalf("policy=%s deadline=%v", th.Policy(), th.Deadline())
	}
	if p.CPUTime() != time.Millisecond {
		t.Fatalf("path charged %v, want 1ms", p.CPUTime())
	}
}

func TestWakeupRunsAgainAfterRequeue(t *testing.T) {
	eng, s := newSched()
	g := core.NewGraph()
	r := g.Add("R", stubImpl{})
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	p, _ := g.CreatePath(r, nil)
	wakeups := 0
	p.Wakeup = func(*core.Path, core.ThreadControl) { wakeups++ }
	pending := 3
	var th *Thread
	th = s.NewThread("t", PolicyRR, func(*Thread) (time.Duration, func()) {
		pending--
		return time.Millisecond, func() {
			if pending > 0 {
				th.Wake()
			}
		}
	})
	th.AttachPath(p)
	eng.At(0, func() { th.Wake() })
	eng.Run()
	if wakeups != 3 {
		t.Fatalf("wakeups = %d, want 3 (one per execution)", wakeups)
	}
}

func TestSetPolicyMovesQueuedThread(t *testing.T) {
	eng, s := newSched()
	var log []string
	blk := s.NewThread("blk", PolicyRR, oneShot(eng, &log, "blk", time.Millisecond))
	th := s.NewThread("t", PolicyRR, oneShot(eng, &log, "t", time.Millisecond))
	eng.At(0, func() {
		blk.Wake()
		th.Wake()
		th.SetPolicy(PolicyEDF)
		th.SetDeadline(int64(time.Millisecond))
	})
	eng.Run()
	if len(log) != 2 {
		t.Fatalf("log = %v", log)
	}
	if th.Policy() != PolicyEDF {
		t.Fatalf("policy = %s", th.Policy())
	}
	st := s.Stats()
	if st.PolicyUse[PolicyEDF] != time.Millisecond {
		t.Fatalf("EDF use = %v, want 1ms", st.PolicyUse[PolicyEDF])
	}
}

func TestPriorityClamping(t *testing.T) {
	q := NewRRQueue(4)
	eng := sim.New(1)
	s := New(eng)
	s.AddPolicy("p", q, 100)
	a := s.NewThread("a", "p", func(*Thread) (time.Duration, func()) { return 0, nil })
	a.SetPriority(99) // clamps to 3
	b := s.NewThread("b", "p", func(*Thread) (time.Duration, func()) { return 0, nil })
	b.SetPriority(-5) // clamps to 0
	q.Push(a)
	q.Push(b)
	if q.Pop() != b || q.Pop() != a {
		t.Fatal("clamped priorities misordered")
	}
}

// The scheduler's three steady-state shapes allocate nothing: an interrupt
// landing on a busy CPU (the completion event moves in place), an interrupt
// on an idle CPU (it is armed), and a full wake → dispatch → finish cycle.
func TestSteadyStateZeroAlloc(t *testing.T) {
	eng, s := newSched()
	done := func() {}
	th := s.NewThread("w", PolicyRR, func(*Thread) (time.Duration, func()) { return time.Millisecond, done })
	th.Wake()
	eng.Run() // first cycle sizes the run queue and the event queue

	th.Wake() // CPU busy for 1ms
	if allocs := testing.AllocsPerRun(100, func() { s.Interrupt(time.Microsecond, nil) }); allocs > 0 {
		t.Errorf("interrupt while busy allocates %.1f objects, want 0", allocs)
	}
	eng.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		s.Interrupt(time.Microsecond, nil)
		eng.Run()
	}); allocs > 0 {
		t.Errorf("interrupt while idle allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		th.Wake()
		eng.Run()
	}); allocs > 0 {
		t.Errorf("wake → dispatch → finish allocates %.1f objects, want 0", allocs)
	}
}

func TestStatsCounters(t *testing.T) {
	eng, s := newSched()
	th := s.NewThread("t", PolicyRR, func(*Thread) (time.Duration, func()) { return 2 * time.Millisecond, nil })
	eng.At(0, func() { th.Wake(); s.Interrupt(time.Millisecond, nil) })
	eng.Run()
	st := s.Stats()
	if st.Dispatches != 1 || st.Interrupts != 1 {
		t.Fatalf("dispatches=%d interrupts=%d", st.Dispatches, st.Interrupts)
	}
	if st.Busy != 2*time.Millisecond || st.IRQ != time.Millisecond {
		t.Fatalf("busy=%v irq=%v", st.Busy, st.IRQ)
	}
	if th.Runs() != 1 || th.CPUTime() != 2*time.Millisecond {
		t.Fatalf("thread runs=%d cpu=%v", th.Runs(), th.CPUTime())
	}
}

// stubImpl is a minimal single-stage router for path plumbing in tests.
type stubImpl struct{}

func (stubImpl) Services() []core.ServiceSpec { return nil }
func (stubImpl) Init(*core.Router) error      { return nil }
func (stubImpl) CreateStage(r *core.Router, enter int, a *attr.Attrs) (*core.Stage, *core.NextHop, error) {
	s := &core.Stage{}
	s.SetIface(core.FWD, core.NewNetIface(func(i *core.NetIface, m *msg.Msg) error { return nil }))
	return s, nil, nil
}
