package sched

import (
	"time"

	"scout/internal/core"
	"scout/internal/sim"
)

// Watchdog turns the scheduler's raw dispatch/retire stream into the
// first-class overload signals §4.4 argues explicit paths enable: an EDF
// execution that retires past its deadline is a deadline miss, a
// fixed-priority thread that waited longer than StarveAfter before being
// dispatched is starving. Both are detected on the virtual clock, counted
// globally and per path, and routed to the affected path's degradation
// callback (core.Path.OnOverload) so the path can shed quality instead of
// silently collapsing.
//
// Detection is passive: the watchdog costs two nil-checks per execution when
// absent and never changes scheduling decisions — it only reports them.
type Watchdog struct {
	// StarveAfter is the runnable-to-dispatch latency beyond which a thread
	// without a deadline counts as starving (0 disables starvation checks).
	StarveAfter time.Duration

	// OnEvent, when non-nil, observes every overload signal after the
	// path's own callback ran; experiments use it for global logging.
	OnEvent func(t *Thread, p *core.Path, kind core.OverloadKind, amount time.Duration)

	deadlineMisses int64
	starvations    int64
	worstMiss      time.Duration
	missByPath     map[int64]int64
}

// NewWatchdog attaches a watchdog to s, replacing any previous one.
func NewWatchdog(s *Sched, starveAfter time.Duration) *Watchdog {
	w := &Watchdog{StarveAfter: starveAfter, missByPath: make(map[int64]int64)}
	s.watchdog = w
	return w
}

// DeadlineMisses reports executions that retired past their deadline.
func (w *Watchdog) DeadlineMisses() int64 { return w.deadlineMisses }

// Starvations reports dispatches that exceeded the starvation threshold.
func (w *Watchdog) Starvations() int64 { return w.starvations }

// WorstMiss reports the largest observed deadline overrun.
func (w *Watchdog) WorstMiss() time.Duration { return w.worstMiss }

// MissesByPath reports deadline misses for one path.
func (w *Watchdog) MissesByPath(pid int64) int64 { return w.missByPath[pid] }

// noteDispatch checks the runnable-to-dispatch wait of a thread without a
// deadline against the starvation threshold. Deadline-carrying threads are
// judged at retirement instead — lateness against the deadline is the
// sharper signal there.
func (w *Watchdog) noteDispatch(t *Thread, now sim.Time) {
	if w.StarveAfter <= 0 || t.deadline != sim.Never {
		return
	}
	wait := now.Sub(t.queuedAt)
	if wait <= w.StarveAfter {
		return
	}
	w.starvations++
	if t.path != nil {
		t.path.NotifyOverload(core.OverloadStarvation, wait)
	}
	if w.OnEvent != nil {
		w.OnEvent(t, t.path, core.OverloadStarvation, wait)
	}
}

// noteFinish checks a retiring execution against its deadline. The deadline
// is stable for the whole execution (Wake during Running only sets a
// re-wake flag), so comparing at retirement is exact. Empty polls (zero CPU
// charged) are not judged: a miss is work that finished late, and a poll
// that found nothing to do did no work.
func (w *Watchdog) noteFinish(t *Thread, end sim.Time, charged time.Duration) {
	if charged <= 0 || t.deadline == sim.Never || end <= t.deadline {
		return
	}
	late := end.Sub(t.deadline)
	w.deadlineMisses++
	if late > w.worstMiss {
		w.worstMiss = late
	}
	if t.path != nil {
		w.missByPath[t.path.PID]++
		t.path.NotifyOverload(core.OverloadDeadlineMiss, late)
	}
	if w.OnEvent != nil {
		w.OnEvent(t, t.path, core.OverloadDeadlineMiss, late)
	}
}
