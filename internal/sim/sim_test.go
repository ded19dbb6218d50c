package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New(1)
	var fired Time
	e.After(5*time.Millisecond, func() { fired = e.Now() })
	e.Run()
	if fired != Time(5*time.Millisecond) {
		t.Fatalf("fired at %v, want 5ms", fired)
	}
	if e.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(time.Second), func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.After(2*time.Second, func() { fired = true })
	e.After(1*time.Second, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	e := New(1)
	var fired Time = -1
	e.After(time.Second, func() {
		e.At(0, func() { fired = e.Now() })
	})
	e.Run()
	if fired != Time(time.Second) {
		t.Fatalf("past event fired at %v, want clamp to 1s", fired)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := New(1)
	early, late := false, false
	e.After(1*time.Second, func() { early = true })
	e.After(3*time.Second, func() { late = true })
	e.RunUntil(Time(2 * time.Second))
	if !early || late {
		t.Fatalf("early=%v late=%v, want true,false", early, late)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	e.Run()
	if !late {
		t.Fatal("late event lost")
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := New(1)
	at := false
	e.After(2*time.Second, func() { at = true })
	e.RunUntil(Time(2 * time.Second))
	if !at {
		t.Fatal("event at the RunUntil boundary did not fire")
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	e.Run() // resume
	if count != 10 {
		t.Fatalf("after resume count = %d, want 10", count)
	}
}

func TestTicker(t *testing.T) {
	e := New(1)
	var ticks []Time
	tk := e.Tick(10*time.Millisecond, func() {
		ticks = append(ticks, e.Now())
	})
	e.RunUntil(Time(35 * time.Millisecond))
	tk.Stop()
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (%v)", len(ticks), ticks)
	}
	for i, tt := range ticks {
		want := Time((i + 1) * 10 * int(time.Millisecond))
		if tt != want {
			t.Fatalf("tick %d at %v, want %v", i, tt, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := New(1)
	n := 0
	var tk *Ticker
	tk = e.Tick(time.Millisecond, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 2 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 2", n)
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestNeverSortsLast(t *testing.T) {
	if Never <= Time(1<<62) {
		t.Fatal("Never is not larger than practical times")
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(time.Second)
	if got := base.Add(500 * time.Millisecond); got != Time(1500*time.Millisecond) {
		t.Fatalf("Add = %v", got)
	}
	if got := base.Sub(Time(200 * time.Millisecond)); got != 800*time.Millisecond {
		t.Fatalf("Sub = %v", got)
	}
	if base.Seconds() != 1.0 {
		t.Fatalf("Seconds = %v", base.Seconds())
	}
}

// Property: however events are scheduled, they fire in non-decreasing time
// order and the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.After(time.Duration(d)*time.Microsecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: nested scheduling from inside events still preserves ordering.
func TestPropertyNestedScheduling(t *testing.T) {
	f := func(seeds []uint8) bool {
		e := New(11)
		last := Time(-1)
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if depth < 3 {
				e.After(time.Duration(depth+1)*time.Millisecond, func() { spawn(depth + 1) })
			}
		}
		for _, s := range seeds {
			e.After(time.Duration(s)*time.Millisecond, func() { spawn(0) })
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingExcludesCanceled(t *testing.T) {
	e := New(1)
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.After(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for i := 0; i < 4; i++ {
		evs[i].Cancel()
		evs[i].Cancel() // double cancel must not double-count
	}
	if got := e.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", got)
	}
	ran := 0
	for e.Step() {
		ran++
	}
	if ran != 6 {
		t.Fatalf("ran %d events, want 6", ran)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

func TestCancelStormCompacts(t *testing.T) {
	e := New(1)
	const n = 1000
	var evs []*Event
	for i := 0; i < n; i++ {
		evs = append(evs, e.After(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			evs[i].Cancel() // 750 canceled, 250 live
		}
	}
	// Cancel is eager: a cancellation storm leaves exactly the live entries
	// queued, so mass cancellation (path teardown at scale) cannot pin memory.
	if len(e.queue) != n/4 {
		t.Fatalf("queue holds %d entries after canceling %d of %d, want %d", len(e.queue), n-n/4, n, n/4)
	}
	if got := e.Pending(); got != n/4 {
		t.Fatalf("Pending = %d, want %d", got, n/4)
	}
	e.Run()
	if got := e.ran; got != n/4 {
		t.Fatalf("ran %d events, want %d", got, n/4)
	}
	if e.Now() != Time(997*time.Millisecond) {
		t.Fatalf("Now() = %v, want 997ms (last surviving event)", e.Now())
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := New(1)
	ev := e.After(time.Millisecond, func() {})
	e.Run()
	e.After(time.Millisecond, func() {})
	ev.Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after canceling a fired event, want 1 (the bystander)", got)
	}
}

func TestTickerReusesEvent(t *testing.T) {
	e := New(1)
	n := 0
	tk := e.Tick(time.Millisecond, func() { n++ })
	e.RunUntil(Time(10 * time.Millisecond))
	if n != 10 {
		t.Fatalf("ticker fired %d times, want 10", n)
	}
	if !tk.ev.Queued() || e.Pending() != 1 {
		t.Fatalf("ticker's own event not the one queued entry (queued=%v, pending=%d)", tk.ev.Queued(), e.Pending())
	}
	// Steady state: each tick pops and re-pushes the same event — zero
	// allocations per period.
	e2 := New(1)
	m := 0
	e2.Tick(time.Millisecond, func() { m++ })
	e2.Step() // first fire
	if allocs := testing.AllocsPerRun(100, func() { e2.Step() }); allocs > 0 {
		t.Fatalf("ticker re-arm allocates %.1f objects per period, want 0", allocs)
	}
}

// timerRig drives nTimers owner-held timers plus fire-and-forget events on
// one engine and logs what fires. The reference rig moves a timer the way the
// tree did before Rearm existed — Cancel the old handle, At a new one — and
// posts one-shots through At; the in-place rig uses Rearm and Schedule.
type timerRig struct {
	e       *Engine
	inPlace bool
	handles []*Event // reference: latest At handle per timer
	evs     []Event  // in place: the owner-held events
	fns     []func()
	log     []firing
}

type firing struct {
	at Time
	id int
}

func newTimerRig(n int, inPlace bool) *timerRig {
	r := &timerRig{e: New(1), inPlace: inPlace, handles: make([]*Event, n), evs: make([]Event, n), fns: make([]func(), n)}
	for id := range r.fns {
		id := id
		r.fns[id] = func() {
			r.log = append(r.log, firing{r.e.Now(), id})
			// Some timers re-arm themselves from inside their own callback,
			// the shape of every retransmission and pacing timer.
			if id%3 == 0 && len(r.log)%4 != 0 {
				r.arm(id, time.Duration(id%5)*time.Microsecond)
			}
		}
	}
	return r
}

func (r *timerRig) arm(id int, d time.Duration) {
	t := r.e.Now().Add(d)
	if r.inPlace {
		r.e.Rearm(&r.evs[id], t, r.fns[id])
		return
	}
	if h := r.handles[id]; h != nil {
		h.Cancel()
	}
	r.handles[id] = r.e.At(t, r.fns[id])
}

func (r *timerRig) cancel(id int) {
	if r.inPlace {
		r.evs[id].Cancel()
	} else if h := r.handles[id]; h != nil {
		h.Cancel()
	}
}

func (r *timerRig) oneShot(tag int, d time.Duration) {
	fn := func() { r.log = append(r.log, firing{r.e.Now(), tag}) }
	if r.inPlace {
		r.e.Schedule(r.e.Now().Add(d), fn)
	} else {
		r.e.At(r.e.Now().Add(d), fn)
	}
}

// TestPropertyRearmMatchesCancelAt is the equivalence the whole tree leans
// on: re-arming in place and scheduling without a handle fire the same
// (time, id) sequence as Cancel+At and At, simultaneous events included, and
// agree on Pending after every operation.
func TestPropertyRearmMatchesCancelAt(t *testing.T) {
	const nTimers = 12
	for seed := int64(1); seed <= 20; seed++ {
		ref, inp := newTimerRig(nTimers, false), newTimerRig(nTimers, true)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 3000; op++ {
			id := rng.Intn(nTimers)
			// Few distinct delays, zero among them, so instants collide and
			// the FIFO order within an instant is exercised.
			d := time.Duration(rng.Intn(4)) * time.Microsecond
			switch k := rng.Intn(10); {
			case k < 4:
				ref.arm(id, d)
				inp.arm(id, d)
			case k < 5:
				ref.cancel(id)
				inp.cancel(id)
			case k < 7:
				ref.oneShot(100+op, d)
				inp.oneShot(100+op, d)
			default:
				if a, b := ref.e.Step(), inp.e.Step(); a != b {
					t.Fatalf("seed %d op %d: Step = %v (Cancel+At) vs %v (in place)", seed, op, a, b)
				}
			}
			if a, b := ref.e.Pending(), inp.e.Pending(); a != b {
				t.Fatalf("seed %d op %d: Pending = %d (Cancel+At) vs %d (in place)", seed, op, a, b)
			}
		}
		ref.e.Run()
		inp.e.Run()
		if len(ref.log) != len(inp.log) {
			t.Fatalf("seed %d: %d firings (Cancel+At) vs %d (in place)", seed, len(ref.log), len(inp.log))
		}
		for i := range ref.log {
			if ref.log[i] != inp.log[i] {
				t.Fatalf("seed %d: firing %d = %+v (Cancel+At) vs %+v (in place)", seed, i, ref.log[i], inp.log[i])
			}
		}
	}
}

func TestRearmMovesQueuedEvent(t *testing.T) {
	e := New(1)
	var ev Event
	var order []string
	e.Rearm(&ev, Time(5*time.Millisecond), func() { order = append(order, "early") })
	e.At(Time(8*time.Millisecond), func() { order = append(order, "bystander") })
	// Moving to the bystander's instant queues behind it: a fresh place in
	// the FIFO order, and the newest func wins.
	e.Rearm(&ev, Time(8*time.Millisecond), func() { order = append(order, "moved") })
	if e.Pending() != 2 || ev.When() != Time(8*time.Millisecond) {
		t.Fatalf("Pending = %d, When = %v; want 2 entries and 8ms", e.Pending(), ev.When())
	}
	e.Run()
	if len(order) != 2 || order[0] != "bystander" || order[1] != "moved" {
		t.Fatalf("order = %v, want [bystander moved]", order)
	}
	if ev.Queued() {
		t.Fatal("event still queued after firing")
	}
	ev.Cancel() // fired: no-op
	new(Event).Cancel()
}

func TestScheduleRecyclesEntries(t *testing.T) {
	e := New(1)
	n := 0
	var fn func()
	fn = func() {
		if n++; n < 100 {
			e.Schedule(e.Now().Add(time.Microsecond), fn)
		}
	}
	e.Schedule(0, fn)
	held := e.At(Time(time.Second), func() {}) // a held handle is never recycled
	e.Run()
	if n != 100 {
		t.Fatalf("chain fired %d times, want 100", n)
	}
	// Each link of the chain is scheduled while its predecessor is still
	// firing, so the chain alternates between two entries.
	if len(e.free) != 2 {
		t.Fatalf("free list holds %d entries after a 100-event chain, want the 2 it alternated between", len(e.free))
	}
	for _, ev := range e.free {
		if ev == held {
			t.Fatal("an At event reached the free list")
		}
	}
}

// The three steady-state forms of the hot path — re-arm an owner-held event,
// schedule without a handle, run an event — allocate nothing.
func TestHotPathZeroAlloc(t *testing.T) {
	e := New(1)
	for i := 0; i < 64; i++ { // size the queue and the free list
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	var ev Event
	fn := func() {}
	if allocs := testing.AllocsPerRun(100, func() {
		e.Rearm(&ev, e.Now().Add(time.Millisecond), fn) // push or move
		e.Rearm(&ev, e.Now().Add(time.Microsecond), fn) // move
	}); allocs > 0 {
		t.Fatalf("Rearm allocates %.1f objects per call pair, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(e.Now().Add(time.Microsecond), fn)
		e.Step()
		e.Step()
	}); allocs > 0 {
		t.Fatalf("Schedule+Step allocates %.1f objects, want 0", allocs)
	}
}

func TestRunUntilStopKeepsClock(t *testing.T) {
	e := New(1)
	var fired []int
	for i := 1; i <= 10; i++ {
		i := i
		e.After(time.Duration(i)*time.Second, func() {
			fired = append(fired, i)
			if i == 3 {
				e.Stop()
			}
		})
	}
	e.RunUntil(Time(10 * time.Second))
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("Now() = %v after mid-run Stop, want 3s (not the RunUntil target)", e.Now())
	}
	// Resume: the events between the stop point and the target must still be
	// runnable (before the fix the clock jumped to the target and Step
	// panicked with "time went backwards").
	e.RunUntil(Time(10 * time.Second))
	if len(fired) != 10 {
		t.Fatalf("resume ran %d events, want 10 (%v)", len(fired), fired)
	}
	if e.Now() != Time(10*time.Second) {
		t.Fatalf("Now() = %v after resume, want 10s", e.Now())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, func() {})
		e.Step()
	}
}

// TestLocalIsPerEngineAndMadeOnce: a key's value is made on first use, kept
// for the engine's life, and never seen by another engine.
func TestLocalIsPerEngineAndMadeOnce(t *testing.T) {
	type key struct{}
	made := 0
	mk := func() any { made++; return new(int) }
	a, b := New(1), New(1)
	v := a.Local(key{}, mk)
	if a.Local(key{}, mk) != v || made != 1 {
		t.Fatalf("second lookup made a new value (%d made)", made)
	}
	if b.Local(key{}, mk) == v || made != 2 {
		t.Fatalf("engines share a value (%d made)", made)
	}
	if a.Local(struct{ other int }{}, mk) == v {
		t.Fatal("keys share a value")
	}
}
