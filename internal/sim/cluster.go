package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Cluster is a conservative parallel discrete-event simulator: a fixed set
// of shard Engines, each with its own event heap, virtual clock, and (via
// the shared seed and DeriveRand) decorrelated random streams. Shards run
// concurrently inside quantized virtual-time windows and synchronize at
// window barriers, where cross-shard messages (posted through Xports) are
// merged in a deterministic global order and delivered.
//
// The safety argument is the classic lookahead rule. Windows are the
// intervals (kL, (k+1)L] for the configured lookahead L, and a message
// posted at sender time τ must carry a firing time ≥ τ+L. A message posted
// during the window ending at barrier b therefore fires strictly after b
// (τ > b−L ⇒ when > b), so delivering it at the barrier — before any shard's
// clock passes b — can never schedule into a shard's past, and no shard can
// observe a cross-shard effect before every message that precedes it has
// arrived. Within a window shards share nothing, so running them on one
// goroutine or eight produces bit-identical state; the only cross-shard
// coupling is the barrier merge, which sorts messages by
// (firing time, Xport id, per-Xport sequence) — a key independent of shard
// layout and arrival interleaving. That is what makes same-seed runs
// byte-identical at any shard count, provided the simulated objects follow
// the confinement rules: an object lives on exactly one shard, talks to
// other shards only through Xports, and draws randomness from
// DeriveRand(stable id) rather than the shared-position Engine.Rand stream.
type Cluster struct {
	shards    []*Engine
	lookahead Time
	xports    map[int64]*Xport
	stopped   atomic.Bool

	// Serial forces windows to execute on the calling goroutine, one shard
	// at a time. Results are identical to the parallel run (shards share
	// nothing within a window); tests use it to prove exactly that, and
	// profiles use it to isolate single-core cost.
	Serial bool
}

// NewCluster creates nshards engines sharing one seed — DeriveRand streams
// for a given id are then identical on every shard, so moving an object
// between shards cannot change its randomness. lookahead is the window
// quantum: the minimum virtual-time distance of any cross-shard message,
// normally the smallest cross-shard link latency.
func NewCluster(seed int64, nshards int, lookahead time.Duration) *Cluster {
	if nshards < 1 {
		panic("sim: NewCluster needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewCluster needs a positive lookahead")
	}
	c := &Cluster{lookahead: Time(lookahead), xports: make(map[int64]*Xport)}
	for i := 0; i < nshards; i++ {
		e := New(seed)
		e.cluster, e.shard = c, i
		c.shards = append(c.shards, e)
	}
	return c
}

// Shards reports the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i's engine. Objects built on it must stay confined to
// it; see the Cluster doc comment.
func (c *Cluster) Shard(i int) *Engine { return c.shards[i] }

// Lookahead reports the window quantum.
func (c *Cluster) Lookahead() time.Duration { return time.Duration(c.lookahead) }

// Now reports the cluster's conservative clock: the minimum shard clock.
func (c *Cluster) Now() Time {
	lo := c.shards[0].now
	for _, e := range c.shards[1:] {
		if e.now < lo {
			lo = e.now
		}
	}
	return lo
}

// EventsRun sums the shards' executed-event counters. Call it between runs;
// the counters are shard-owned while a window executes.
func (c *Cluster) EventsRun() uint64 {
	var n uint64
	for _, e := range c.shards {
		n += e.ran
	}
	return n
}

// Pending sums the shards' runnable queued events.
func (c *Cluster) Pending() int {
	n := 0
	for _, e := range c.shards {
		n += e.Pending()
	}
	return n
}

// Stop makes RunUntil return at the next window barrier.
func (c *Cluster) Stop() { c.stopped.Store(true) }

// RunFor is RunUntil(Now().Add(d)).
func (c *Cluster) RunFor(d time.Duration) { c.RunUntil(c.Now().Add(d)) }

// RunUntil executes every shard's events with firing times <= t, window by
// window, then leaves all shard clocks at t. Like Engine.RunUntil it is
// right-inclusive; unlike it, calling it again with the same t is a no-op
// even if events at exactly t were scheduled in between (they run at the
// start of the next window). If a shard Stops mid-window, the loop exits at
// that barrier with the stopping shard's clock mid-window; the next RunUntil
// resumes the partial window first, deferring the barrier's mailbox drain
// until the whole window is complete, so a stopped-and-resumed run delivers
// every message batch exactly as an unstopped run would.
func (c *Cluster) RunUntil(t Time) {
	c.stopped.Store(false)
	for {
		lo := c.Now()
		if lo%c.lookahead == 0 {
			// All shards are at a barrier (or at start): the previous window
			// is complete everywhere, so its messages merge as one batch.
			c.drain()
		}
		if lo >= t {
			return
		}
		end := lo - lo%c.lookahead + c.lookahead
		if end > t {
			end = t
		}
		c.runWindow(end)
		if c.stopped.Load() {
			return
		}
	}
}

// runWindow advances every shard to end, in parallel unless the cluster is
// serial or single-shard. Shards touch only their own state inside a window;
// the WaitGroup barrier publishes it back to the coordinator.
func (c *Cluster) runWindow(end Time) {
	if c.Serial || len(c.shards) == 1 {
		for _, e := range c.shards {
			e.runUntil(end)
		}
		return
	}
	var wg sync.WaitGroup
	for _, e := range c.shards {
		wg.Add(1)
		//scout:spawn window workers: one goroutine per shard, joined at the barrier before any cross-shard state is read
		go func(e *Engine) {
			defer wg.Done()
			e.runUntil(end)
		}(e)
	}
	wg.Wait()
}

// drain merges every shard's outbox in the deterministic global order and
// schedules the messages into their destination shards. The sort key —
// (firing time, Xport id, per-Xport sequence) — does not mention shards, and
// each Xport's message stream depends only on its source objects' own
// deterministic execution, so the merged order is identical for every shard
// layout of the same simulated world.
func (c *Cluster) drain() {
	var msgs []xmsg
	for _, e := range c.shards {
		msgs = append(msgs, e.outbox...)
		clear(e.outbox)
		e.outbox = e.outbox[:0]
	}
	if len(msgs) == 0 {
		return
	}
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.when != b.when {
			return a.when < b.when
		}
		if a.xid != b.xid {
			return a.xid < b.xid
		}
		return a.seq < b.seq
	})
	for i := range msgs {
		msgs[i].dst.Schedule(msgs[i].when, msgs[i].fn)
	}
}

// xmsg is one cross-shard message awaiting its barrier.
type xmsg struct {
	when Time
	xid  int64
	seq  uint64
	fn   func()
	dst  *Engine
}

// Xport is a one-directional cross-shard message channel. Ids must be
// globally unique and stable across runs and shard layouts: they are the
// second component of the barrier merge's sort key, so reusing an id (or
// deriving it from anything layout-dependent) breaks determinism.
//
// An Xport whose source and destination land on the same shard still buffers
// to the barrier: delivery timing must depend on the simulated topology, not
// on which shard an object happens to live on, or a one-shard run would
// order simultaneous events differently than a many-shard run.
type Xport struct {
	c   *Cluster
	id  int64
	src *Engine
	dst *Engine
	seq uint64
}

// NewXport creates the channel from src to dst under id.
func (c *Cluster) NewXport(id int64, src, dst *Engine) *Xport {
	if src.cluster != c || dst.cluster != c {
		panic("sim: NewXport across clusters")
	}
	if _, dup := c.xports[id]; dup {
		panic(fmt.Sprintf("sim: duplicate Xport id %d", id))
	}
	x := &Xport{c: c, id: id, src: src, dst: dst}
	c.xports[id] = x
	return x
}

// Post schedules fn on the destination shard at time t, which must respect
// the lookahead: t >= source now + lookahead. Call it only from the source
// shard (its events, or setup code before the cluster runs).
//
//scout:assert a lookahead violation means the topology lied about its minimum cross-shard latency; the run is invalid, fail loudly
func (x *Xport) Post(t Time, fn func()) {
	if fn == nil {
		panic("sim: Post with nil func")
	}
	if min := x.src.now + x.c.lookahead; t < min {
		panic(fmt.Sprintf("sim: Post at %v violates lookahead %v (source now %v)",
			t, time.Duration(x.c.lookahead), x.src.now))
	}
	x.seq++
	x.src.outbox = append(x.src.outbox, xmsg{when: t, xid: x.id, seq: x.seq, fn: fn, dst: x.dst})
}
