package sim

import (
	"testing"
	"time"
)

const testL = time.Millisecond

// ringWorld is a deterministic multi-shard workload: G groups, each with a
// ticker that mixes derived randomness into its state and posts a message to
// the next group's shard through its own Xport. The final states depend on
// event ordering (the mix is non-commutative), so any layout- or
// parallelism-dependent divergence shows up as a different state vector.
type ringWorld struct {
	c     *Cluster
	state []int64
}

func buildRing(seed int64, shards, groups int) *ringWorld {
	w := &ringWorld{c: NewCluster(seed, shards, testL), state: make([]int64, groups)}
	for g := 0; g < groups; g++ {
		g := g
		src := w.c.Shard(g % shards)
		dst := w.c.Shard((g + 1) % shards)
		x := w.c.NewXport(100+int64(g), src, dst)
		rng := src.DeriveRand(1000 + int64(g))
		peer := (g + 1) % groups
		src.Tick(250*time.Microsecond, func() {
			v := rng.Int63n(1 << 20)
			w.state[g] = w.state[g]*31 + v
			x.Post(src.Now().Add(testL), func() {
				w.state[peer] = w.state[peer]*37 + v
			})
		})
	}
	return w
}

func runRing(t *testing.T, seed int64, shards int, serial bool, until Time) []int64 {
	t.Helper()
	w := buildRing(seed, shards, 4)
	w.c.Serial = serial
	w.c.RunUntil(until)
	if got := w.c.Now(); got != until {
		t.Fatalf("cluster Now() = %v after RunUntil(%v)", got, until)
	}
	return w.state
}

func sameStates(t *testing.T, label string, a, b []int64) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: state[%d] differs: %d vs %d (full: %v vs %v)", label, i, a[i], b[i], a, b)
		}
	}
}

// Contract A: with a fixed shard layout, parallel window execution is
// bit-identical to serial execution.
func TestClusterParallelMatchesSerial(t *testing.T) {
	until := Time(50 * time.Millisecond)
	par := runRing(t, 42, 4, false, until)
	ser := runRing(t, 42, 4, true, until)
	sameStates(t, "parallel vs serial", par, ser)
}

// Contract B: the shard count is invisible — the same world produces the
// same states at 1, 2, and 4 shards, because Xports buffer to barriers even
// when source and destination share a shard.
func TestClusterShardCountInvisible(t *testing.T) {
	until := Time(50 * time.Millisecond)
	s1 := runRing(t, 42, 1, false, until)
	s2 := runRing(t, 42, 2, false, until)
	s4 := runRing(t, 42, 4, false, until)
	sameStates(t, "1 vs 2 shards", s1, s2)
	sameStates(t, "1 vs 4 shards", s1, s4)
}

func TestClusterSeedMatters(t *testing.T) {
	until := Time(20 * time.Millisecond)
	a := runRing(t, 1, 2, false, until)
	b := runRing(t, 2, 2, false, until)
	diff := false
	for i := range a {
		if a[i] != b[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical states")
	}
}

// Satellite edge case: an event stops its shard mid-window; the resumed run
// must end in exactly the state of an unstopped run (the barrier drain is
// deferred until the interrupted window completes everywhere).
func TestClusterStopMidWindowResume(t *testing.T) {
	until := Time(50 * time.Millisecond)
	want := runRing(t, 42, 2, false, until)

	w := buildRing(42, 2, 4)
	stopAt := Time(10*time.Millisecond + 250*time.Microsecond) // mid-window tick
	w.c.Shard(0).At(stopAt, func() { w.c.Shard(0).Stop() })
	w.c.RunUntil(until)
	if now := w.c.Now(); now >= until {
		t.Fatalf("cluster ran to %v despite mid-window Stop", now)
	}
	w.c.RunUntil(until) // resume
	sameStates(t, "stopped+resumed vs unstopped", want, w.state)
}

// Satellite edge case: events scheduled exactly at a window boundary fire in
// that window (right-inclusive), exactly once, at their scheduled time.
func TestClusterWindowBoundaryEvent(t *testing.T) {
	c := NewCluster(1, 2, testL)
	var fired []Time
	b := Time(testL) // first barrier
	c.Shard(0).At(b, func() { fired = append(fired, c.Shard(0).Now()) })
	c.RunUntil(b) // target == boundary
	if len(fired) != 1 || fired[0] != b {
		t.Fatalf("boundary event fired %v, want once at %v", fired, b)
	}
	c.RunUntil(2 * b)
	if len(fired) != 1 {
		t.Fatalf("boundary event re-fired: %v", fired)
	}
}

// Satellite edge case: a cross-shard message whose firing time equals the
// destination clock at its delivery barrier still fires, at that exact time,
// in the following window.
func TestClusterXportAtLocalClock(t *testing.T) {
	c := NewCluster(1, 2, testL)
	x := c.NewXport(7, c.Shard(0), c.Shard(1))
	var fired []Time
	c.Shard(0).At(0, func() {
		// Posted at τ=0 with when=L: drained at barrier L, where the
		// destination clock is already exactly L.
		x.Post(Time(testL), func() { fired = append(fired, c.Shard(1).Now()) })
	})
	c.RunUntil(Time(2 * testL))
	if len(fired) != 1 || fired[0] != Time(testL) {
		t.Fatalf("boundary-time message fired %v, want once at %v", fired, Time(testL))
	}
}

func TestClusterNonAlignedTarget(t *testing.T) {
	// Stopping RunUntil off a window boundary and continuing from there must
	// not lose or duplicate messages.
	until := Time(50 * time.Millisecond)
	want := runRing(t, 9, 2, false, until)
	w := buildRing(9, 2, 4)
	w.c.RunUntil(Time(10*time.Millisecond + 300*time.Microsecond))
	w.c.RunUntil(Time(30*time.Millisecond + 700*time.Microsecond))
	w.c.RunUntil(until)
	sameStates(t, "stepped vs single RunUntil", want, w.state)
}

func TestXportLookaheadViolationPanics(t *testing.T) {
	c := NewCluster(1, 2, testL)
	x := c.NewXport(1, c.Shard(0), c.Shard(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Post below lookahead did not panic")
		}
	}()
	x.Post(Time(testL/2), func() {})
}

func TestXportDuplicateIDPanics(t *testing.T) {
	c := NewCluster(1, 2, testL)
	c.NewXport(1, c.Shard(0), c.Shard(1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Xport id did not panic")
		}
	}()
	c.NewXport(1, c.Shard(1), c.Shard(0))
}

func TestClusterShardDirectRunPanics(t *testing.T) {
	c := NewCluster(1, 2, testL)
	for _, op := range []func(){
		func() { c.Shard(0).Run() },
		func() { c.Shard(0).RunUntil(Time(testL)) },
		func() { c.Shard(0).Step() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("direct shard stepping did not panic")
				}
			}()
			op()
		}()
	}
}

func TestClusterEventsRun(t *testing.T) {
	c := NewCluster(1, 2, testL)
	for s := 0; s < 2; s++ {
		e := c.Shard(s)
		for i := 0; i < 10; i++ {
			e.After(time.Duration(i+1)*100*time.Microsecond, func() {})
		}
	}
	c.RunUntil(Time(10 * time.Millisecond))
	if got := c.EventsRun(); got != 20 {
		t.Fatalf("EventsRun = %d, want 20", got)
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
}

func benchCluster(b *testing.B, shards int) {
	c := NewCluster(1, shards, testL)
	for s := 0; s < shards; s++ {
		e := c.Shard(s)
		for i := 0; i < 64; i++ {
			var fn func()
			fn = func() { e.At(e.Now().Add(10*time.Microsecond), fn) }
			e.At(e.Now().Add(10*time.Microsecond), fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c.EventsRun() < uint64(b.N) {
		c.RunFor(10 * time.Millisecond)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(c.EventsRun())/secs, "events/s")
	}
}

// The windowed engine's raw event throughput, single- and multi-shard,
// reported as events/s; on a multicore host the 4-shard figure shows the
// parallel speedup, on one core it shows the windowing overhead.
func BenchmarkClusterEvents1(b *testing.B) { benchCluster(b, 1) }
func BenchmarkClusterEvents4(b *testing.B) { benchCluster(b, 4) }
