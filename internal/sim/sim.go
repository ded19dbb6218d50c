// Package sim provides the discrete-event simulation engine that the Scout
// reproduction runs on: a virtual clock, an event queue, and a deterministic
// random source.
//
// The paper's scheduling experiments (Tables 1-2 and the EDF-vs-RR study)
// depend on relative CPU costs and queueing structure, not on wall-clock
// behaviour of a 1996 Alpha. Running the kernel on a virtual clock makes
// every experiment deterministic and repeatable while preserving the
// structural properties the paper measures. Wall-clock microbenchmarks
// (path creation, demux) bypass this package entirely and use testing.B.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, expressed in nanoseconds since boot.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since boot.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since boot.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// Never is a sentinel meaning "no deadline"; it sorts after every real time.
const Never Time = 1<<63 - 1

// Event is a scheduled callback. Two ownership rules cover every event in
// the tree:
//
//   - At/After schedule a fire-and-forget event and return no handle: nothing
//     can refer to the entry once it fires, so the engine recycles it.
//   - Rearm schedules an event the caller owns, typically a struct field held
//     by value for the owner's whole life (a scheduler's completion, a
//     retransmission timer). A queued event moves in place; the zero Event is
//     ready to use. Only an owner-held event can be canceled or read.
//
// Cancel is eager: the entry leaves the queue at once.
type Event struct {
	fn     func()
	eng    *Engine
	pos    int32 // 1-based queue slot; 0 = not queued
	pooled bool  // scheduled by At: back to the free list on firing
}

// When reports the virtual time at which the event will fire, or Never if it
// is not queued.
func (ev *Event) When() Time {
	if ev.pos == 0 {
		return Never
	}
	return ev.eng.queue[ev.pos-1].when
}

// Queued reports whether the event is waiting to fire.
func (ev *Event) Queued() bool { return ev.pos != 0 }

// Cancel prevents the event from firing by removing it from the queue.
// Canceling an event that already fired, was already canceled or was never
// scheduled is a no-op.
func (ev *Event) Cancel() {
	if ev.pos != 0 {
		ev.eng.remove(int(ev.pos) - 1)
	}
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New. Engines are not safe for concurrent use: the whole simulated kernel
// is single-threaded, exactly like Scout's non-preemptive core.
type Engine struct {
	now     Time
	queue   []slot
	seq     uint64
	seed    int64
	rng     *rand.Rand
	stopped bool
	ran     uint64   // events executed, for wall-clock rate accounting
	free    []*Event // fired At entries awaiting reuse
	locals  map[any]any

	// Set when the engine is one shard of a Cluster: the shard may then only
	// be driven through the cluster's windowed run loop.
	cluster *Cluster
	shard   int
	outbox  []xmsg // cross-shard messages posted this window, drained at barriers
}

// New returns an engine with its clock at 0 and a deterministic random
// source derived from seed.
func New(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Local returns the engine's value for key, which mk makes the first time it
// is asked for. It is how a package keeps state with the lifetime of one
// simulated world: never shared between engines, and dropped with the engine
// however the world ends, which a package-level variable or a registry of
// engines is not. Use a key type of your own, look the value up at set-up
// and keep it; this is not for the data path.
func (e *Engine) Local(key any, mk func() any) any {
	v, ok := e.locals[key]
	if !ok {
		if e.locals == nil {
			e.locals = make(map[any]any)
		}
		v = mk()
		e.locals[key] = v
	}
	return v
}

// Seed reports the seed the engine was created with, so subsystems can
// derive decorrelated per-object random streams from it.
func (e *Engine) Seed() int64 { return e.seed }

// DeriveRand returns an independent deterministic random source for stream
// id, derived from the engine seed. Distinct ids give uncorrelated streams,
// and no id reproduces the engine's own source (the fixed-point scramble
// keeps id 0 from collapsing to the raw seed). Draws from a derived stream
// do not perturb the engine's main source, so two objects with their own
// streams stay independent no matter how their draws interleave.
func (e *Engine) DeriveRand(id int64) *rand.Rand {
	const scramble = -0x61c8864680b583eb // 2^64 / golden ratio, as int64
	return rand.New(rand.NewSource(e.seed ^ (id+1)*scramble))
}

// At schedules fn to run at virtual time t. Scheduling in the past (or at
// the present) runs the event at the current time, after already-pending
// events for that time. The event cannot be canceled or moved, which is what
// lets the engine reuse its entry as soon as it fires; an event its owner must
// cancel is an owner-held one (Rearm).
//
//scout:assert a nil event func would crash the loop later with the cause lost; fail at the scheduling site
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: At with nil func")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &Event{eng: e, pooled: true}
	}
	ev.fn = fn
	e.enqueue(ev, t)
}

// After schedules fn to run d from now. Negative d behaves like d == 0.
func (e *Engine) After(d time.Duration, fn func()) { e.At(e.now.Add(d), fn) }

// Rearm schedules the caller-owned event ev to run fn at t. An event still
// queued moves there in place; either way it takes a fresh place in the FIFO
// order of its instant, exactly as canceling it and calling At would. The
// caller must keep ev alive and at one address while it is queued. Past
// times clamp to now, as for At.
//
//scout:assert a nil event func would crash the loop later with the cause lost; fail at the scheduling site
func (e *Engine) Rearm(ev *Event, t Time, fn func()) {
	if fn == nil {
		panic("sim: Rearm with nil func")
	}
	ev.fn, ev.eng = fn, e
	if ev.pos == 0 {
		e.enqueue(ev, t)
		return
	}
	e.place(int(ev.pos)-1, e.stamp(ev, t))
}

// Pending reports the number of events queued.
func (e *Engine) Pending() int { return len(e.queue) }

// EventsRun reports how many events the engine has executed since creation;
// the scale experiments divide it by wall time for an events/sec rate.
func (e *Engine) EventsRun() uint64 { return e.ran }

// slot is one queue entry. The ordering key lives in the slot, so sifting
// compares without chasing the event pointer.
type slot struct {
	when Time
	seq  uint64 // FIFO among simultaneous events
	ev   *Event
}

func (a slot) before(b slot) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// The queue is a 4-ary min-heap of slots, indexed: every queued event knows
// its slot, so Cancel and Rearm work in place in O(log n). Both sift
// routines carry s down or up a hole starting at i and drop it where the
// heap order holds again.

func (e *Engine) siftUp(i int, s slot) {
	h := e.queue
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.pos = int32(i + 1)
		i = p
	}
	h[i] = s
	s.ev.pos = int32(i + 1)
}

func (e *Engine) siftDown(i int, s slot) {
	h := e.queue
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < len(h); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(s) {
			break
		}
		h[i] = h[m]
		h[i].ev.pos = int32(i + 1)
		i = m
	}
	h[i] = s
	s.ev.pos = int32(i + 1)
}

// place puts s into the hole at i, sifting whichever way the order requires.
func (e *Engine) place(i int, s slot) {
	if i > 0 && s.before(e.queue[(i-1)/4]) {
		e.siftUp(i, s)
	} else {
		e.siftDown(i, s)
	}
}

// remove takes the entry in slot i out of the queue.
func (e *Engine) remove(i int) {
	h := e.queue
	n := len(h) - 1
	h[i].ev.pos = 0
	last := h[n]
	h[n] = slot{}
	e.queue = h[:n]
	if i < n {
		e.place(i, last)
	}
}

// stamp clamps t to the present and gives ev the next place in the FIFO
// order of that instant.
func (e *Engine) stamp(ev *Event, t Time) slot {
	if t < e.now {
		t = e.now
	}
	e.seq++
	return slot{when: t, seq: e.seq, ev: ev}
}

// enqueue queues ev, which must not be queued already, to fire at t.
func (e *Engine) enqueue(ev *Event, t Time) {
	e.queue = append(e.queue, slot{})
	e.siftUp(len(e.queue)-1, e.stamp(ev, t))
}

// Step runs the next event. It reports false when no runnable event remains.
func (e *Engine) Step() bool {
	e.mustBeUnclustered("Step")
	return e.step()
}

func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	when, ev := e.queue[0].when, e.queue[0].ev
	e.remove(0)
	if when < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v -> %v", e.now, when))
	}
	e.now = when
	e.ran++
	ev.fn()
	if ev.pooled {
		// At returned no handle, so nothing can refer to the entry any more.
		ev.fn = nil
		e.free = append(e.free, ev)
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.mustBeUnclustered("Run")
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with firing times <= t, then advances the clock
// to t. Events scheduled beyond t remain queued. If Stop fires mid-run the
// clock stays where the last event left it, so unreached events (those with
// firing times between the stop point and t) remain runnable on resume.
func (e *Engine) RunUntil(t Time) {
	e.mustBeUnclustered("RunUntil")
	e.runUntil(t)
}

func (e *Engine) runUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].when <= t {
		e.step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor is RunUntil(Now().Add(d)).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Stop makes the innermost Run/RunUntil return after the current event. On a
// clustered shard it also stops the cluster's windowed loop: the other shards
// finish the current window (their events are independent up to the barrier)
// and Cluster.RunUntil returns.
func (e *Engine) Stop() {
	e.stopped = true
	if e.cluster != nil {
		e.cluster.stopped.Store(true)
	}
}

// mustBeUnclustered rejects direct stepping of a cluster shard: running a
// shard outside the cluster's conservative windows would let its clock pass a
// barrier before cross-shard messages for that window were delivered.
//
//scout:assert driving a shard around its cluster is a harness bug, not runtime input
func (e *Engine) mustBeUnclustered(op string) {
	if e.cluster != nil {
		panic("sim: " + op + " on a cluster shard; drive the Cluster instead")
	}
}

// Ticker fires a callback periodically until stopped.
type Ticker struct {
	e      *Engine
	period time.Duration
	fn     func()
	tickFn func() // t.tick, bound once
	ev     Event
	stop   bool
}

// Tick schedules fn every period, first firing one period from now.
// It panics if period <= 0.
func (e *Engine) Tick(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Tick with non-positive period")
	}
	// One closure and one Event for the ticker's whole life: tick re-arms the
	// same entry, so a display vsync at 10^5 paths costs no steady-state
	// allocation.
	t := &Ticker{e: e, period: period, fn: fn}
	t.tickFn = t.tick
	e.Rearm(&t.ev, e.now.Add(period), t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.e.Rearm(&t.ev, t.e.now.Add(t.period), t.tickFn)
	}
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.stop = true
	t.ev.Cancel()
}
