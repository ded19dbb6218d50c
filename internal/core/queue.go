package core

// Queue is one of a path's four queues (§2.5). The paper deliberately leaves
// the queuing discipline unspecified and defines only the current and
// maximum length; this implementation is a FIFO ring with drop-on-full
// semantics (what the ETH input queue needs) plus hooks the scheduler and
// flow control attach to.
// DropCause distinguishes why a queue let go of an item: a tail drop is an
// enqueue refused because the queue was full (the item never entered), a
// shed is an item deliberately removed from the queue without being serviced
// (capacity squeeze, drain at teardown) — the overload machinery treats the
// two very differently, so the OnDrop hook reports which happened.
type DropCause uint8

const (
	// DropTail: enqueue refused on a full queue.
	DropTail DropCause = iota
	// DropShed: a queued item removed unserviced (SetMax eviction, Drain).
	DropShed
)

func (c DropCause) String() string {
	if c == DropTail {
		return "tail"
	}
	return "shed"
}

type Queue struct {
	items []any
	head  int
	n     int
	max   int

	enqueued int64
	dequeued int64
	dropped  int64 // tail drops: refused enqueues
	shed     int64 // queued items removed unserviced

	// NotEmpty, when non-nil, is invoked after an enqueue into a
	// previously empty queue; schedulers use it to wake the path's thread.
	NotEmpty func()
	// Drained, when non-nil, is invoked after a dequeue that empties the
	// queue.
	Drained func()

	// Observer hooks, installed by the tracing subsystem when a path is
	// instrumented. They stay nil on untraced paths, so the hot path pays
	// only a nil check. OnEnqueue fires after the item is stored (before
	// NotEmpty), OnDequeue after removal (before Drained); depth is the
	// queue length after the transition. OnDrop fires for each refused
	// enqueue (DropTail) and each unserviced removal (DropShed).
	OnEnqueue func(item any, depth int)
	OnDequeue func(item any, depth int)
	OnDrop    func(item any, cause DropCause)
}

// NewQueue returns a queue holding at most max items; max must be positive.
//
//scout:assert a non-positive capacity is a path-creation bug, not runtime input
func NewQueue(max int) *Queue {
	if max <= 0 {
		panic("core: queue max must be positive")
	}
	return &Queue{items: make([]any, max), max: max}
}

// Enqueue appends item. It reports false — and counts a drop — when the
// queue is full; early discard of work the path cannot use is one of the
// paper's headline advantages, and it happens right here.
func (q *Queue) Enqueue(item any) bool {
	if q.n == q.max {
		q.dropped++
		if q.OnDrop != nil {
			q.OnDrop(item, DropTail)
		}
		return false
	}
	q.items[(q.head+q.n)%q.max] = item
	q.n++
	q.enqueued++
	if q.OnEnqueue != nil {
		q.OnEnqueue(item, q.n)
	}
	if q.n == 1 && q.NotEmpty != nil {
		q.NotEmpty()
	}
	return true
}

// Dequeue removes and returns the oldest item, or nil when empty.
func (q *Queue) Dequeue() any {
	if q.n == 0 {
		return nil
	}
	item := q.items[q.head]
	q.items[q.head] = nil
	q.head = (q.head + 1) % q.max
	q.n--
	q.dequeued++
	if q.OnDequeue != nil {
		q.OnDequeue(item, q.n)
	}
	if q.n == 0 && q.Drained != nil {
		q.Drained()
	}
	return item
}

// Peek returns the oldest item without removing it, or nil when empty.
func (q *Queue) Peek() any {
	if q.n == 0 {
		return nil
	}
	return q.items[q.head]
}

// Len reports the current length — one of the two properties the paper
// guarantees for any path queue.
func (q *Queue) Len() int { return q.n }

// Max reports the maximum length — the other guaranteed property.
func (q *Queue) Max() int { return q.max }

// Free reports the open slots; MFLOW advertises this as its window (§4.1).
func (q *Queue) Free() int { return q.max - q.n }

// Full reports whether an enqueue would drop.
func (q *Queue) Full() bool { return q.n == q.max }

// Empty reports whether the queue has no items.
func (q *Queue) Empty() bool { return q.n == 0 }

// Enqueued reports the total number of successful enqueues.
func (q *Queue) Enqueued() int64 { return q.enqueued }

// Dequeued reports the total number of successful dequeues.
func (q *Queue) Dequeued() int64 { return q.dequeued }

// Dropped reports how many enqueues were refused because the queue was full.
func (q *Queue) Dropped() int64 { return q.dropped }

// Shed reports how many queued items were removed unserviced (SetMax
// evictions and Drain). The conservation invariant the chaos audit checks is
// Enqueued == Dequeued + Shed + Len.
func (q *Queue) Shed() int64 { return q.shed }

// SetMax changes the queue's capacity (values < 1 clamp to 1). When the new
// capacity is below the current length, the oldest items are evicted — in a
// soft-realtime path the items at the head have waited longest and are worth
// least — counted as sheds, reported to OnDrop, and returned so the caller
// can release their buffers. The chaos fault plane uses this for
// queue-capacity squeezes.
func (q *Queue) SetMax(max int) []any {
	if max < 1 {
		max = 1
	}
	var evicted []any
	for q.n > max {
		item := q.items[q.head]
		q.items[q.head] = nil
		q.head = (q.head + 1) % q.max
		q.n--
		q.shed++
		evicted = append(evicted, item)
		if q.OnDrop != nil {
			q.OnDrop(item, DropShed)
		}
	}
	items := make([]any, max)
	for i := 0; i < q.n; i++ {
		items[i] = q.items[(q.head+i)%q.max]
	}
	q.items, q.head, q.max = items, 0, max
	return evicted
}

// Drain removes every queued item without servicing it, counting each as a
// shed and reporting it to OnDrop. It returns the items in FIFO order so the
// caller can release their buffers; Path.Destroy is the main client.
func (q *Queue) Drain() []any {
	if q.n == 0 {
		return nil
	}
	drained := make([]any, 0, q.n)
	for q.n > 0 {
		item := q.items[q.head]
		q.items[q.head] = nil
		q.head = (q.head + 1) % q.max
		q.n--
		q.shed++
		drained = append(drained, item)
		if q.OnDrop != nil {
			q.OnDrop(item, DropShed)
		}
	}
	q.head = 0
	return drained
}

// Queue indices within a path (§2.5: "For each direction, there is an input
// and an output queue"). The input queue for direction d sits at the end
// where d-traveling messages originate; the output queue at the end where
// they terminate.
const (
	QInFWD  = 0 // input at End[0], feeds FWD execution
	QOutFWD = 1 // output at End[1], holds FWD results
	QInBWD  = 2 // input at End[1], feeds BWD execution
	QOutBWD = 3 // output at End[0], holds BWD results
)

// QIn returns the input-queue index for direction d.
func QIn(d Direction) int {
	if d == FWD {
		return QInFWD
	}
	return QInBWD
}

// QOut returns the output-queue index for direction d.
func QOut(d Direction) int {
	if d == FWD {
		return QOutFWD
	}
	return QOutBWD
}
