// Package fbuf implements path-oriented buffer management in the spirit of
// fbufs (Druschel & Peterson, SOSP '93), which the paper cites as one of the
// mechanisms the path abstraction unifies. An fbuf pool belongs to a path:
// buffers are allocated once, sized with enough headroom for every header
// the path will push, and recycled when the last message view is freed, so
// data placed in an fbuf at the source device is readable by every stage of
// the path without copying.
//
// Go fidelity note (recorded in DESIGN.md): the original fbufs eliminated
// copies across hardware protection domains by remapping pages. Scout runs
// in a single address space, and so does this reproduction; what the pool
// preserves is the path-level property the paper's argument needs — zero
// data copies from input device to output device, which package msg's copy
// counters verify.
package fbuf

import (
	"errors"
	"fmt"
	"sync"

	"scout/internal/msg"
)

// ErrExhausted is the typed error Get returns when the pool is at its buffer
// limit: the path asked for more memory than it was granted at creation time
// (§4.4), and instead of allocating without bound the pool refuses and
// counts the exhaustion so overload is visible, not silent.
var ErrExhausted = errors.New("fbuf: pool exhausted (buffer limit reached)")

// ErrLimit is the name earlier revisions used for ErrExhausted; kept as an
// alias so errors.Is and == comparisons against either name keep working.
var ErrLimit = ErrExhausted

// Pool hands out fixed-size buffers with reserved headroom.
type Pool struct {
	mu       sync.Mutex
	payload  int // usable payload bytes per buffer
	headroom int
	limit    int // max live buffers (free+outstanding); 0 = unlimited
	free     []spare
	created  int
	out      int // buffers currently held by messages

	hits, misses, releases, exhausted int64
}

// spare is a free buffer and what is left of the last message over it: the
// next Get builds its message out of that shell, so a buffer that has been
// round the pool once costs no allocation again, on this run or any other.
type spare struct {
	buf   []byte
	shell msg.Shell
}

// Stats is a snapshot of pool behaviour.
type Stats struct {
	Created     int   // live buffers attributable to the pool (free + outstanding)
	Outstanding int   // buffers currently owned by live messages
	Free        int   // buffers in the freelist
	Hits        int64 // Gets satisfied from the freelist
	Misses      int64 // Gets that had to allocate
	Releases    int64 // buffers returned
	Exhausted   int64 // Gets refused with ErrExhausted at the limit
}

// NewPool returns a pool of buffers with the given payload size and
// headroom. prealloc buffers are allocated eagerly (path establishment does
// this so the data path never allocates); limit caps the total number of
// buffers (0 means unlimited).
func NewPool(payload, headroom, prealloc, limit int) *Pool {
	if payload <= 0 || headroom < 0 {
		panic(fmt.Sprintf("fbuf: bad pool geometry payload=%d headroom=%d", payload, headroom))
	}
	if limit > 0 && prealloc > limit {
		prealloc = limit
	}
	p := &Pool{payload: payload, headroom: headroom, limit: limit}
	for i := 0; i < prealloc; i++ {
		p.free = append(p.free, spare{buf: make([]byte, headroom+payload)})
		p.created++
	}
	return p
}

// Headroom reports the reserved header space per buffer.
func (p *Pool) Headroom() int { return p.headroom }

// Get returns a message whose view covers n payload bytes (at most the
// pool's payload size) with the pool's full headroom in front.
func (p *Pool) Get(n int) (*msg.Msg, error) {
	if n < 0 || n > p.payload {
		return nil, fmt.Errorf("fbuf: request %d exceeds payload size %d", n, p.payload)
	}
	s, err := p.take()
	if err != nil {
		return nil, err
	}
	return s.shell.FromBuffer(s.buf, p.headroom, p.headroom+n, p), nil
}

// GetBurst appends count messages of n payload bytes each to out, drawing
// every buffer under a single lock acquisition, and the view structs and
// refcount cells of buffers on their first trip from the arena — the
// burst-mode allocation path: one lock round-trip and zero heap allocations
// per burst instead of per frame. Like a NIC rx_burst it may come up short:
// at the buffer limit it returns the messages it could build plus
// ErrExhausted.
func (p *Pool) GetBurst(a *msg.Arena, out []*msg.Msg, count, n int) ([]*msg.Msg, error) {
	if n < 0 || n > p.payload {
		return out, fmt.Errorf("fbuf: request %d exceeds payload size %d", n, p.payload)
	}
	a.Reserve(count)
	p.mu.Lock()
	short := false
	for i := 0; i < count; i++ {
		var s spare
		if f := len(p.free); f > 0 {
			s = p.free[f-1]
			p.free[f-1] = spare{}
			p.free = p.free[:f-1]
			p.hits++
		} else if p.limit > 0 && p.created >= p.limit {
			p.exhausted++
			short = true
			break
		} else {
			s.buf = make([]byte, p.headroom+p.payload)
			p.created++
			p.misses++
		}
		p.out++
		if s.shell == (msg.Shell{}) {
			out = append(out, a.FromBuffer(s.buf, p.headroom, p.headroom+n, p))
		} else {
			out = append(out, s.shell.FromBuffer(s.buf, p.headroom, p.headroom+n, p))
		}
	}
	p.mu.Unlock()
	if short {
		return out, ErrExhausted
	}
	return out, nil
}

func (p *Pool) take() (spare, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = spare{}
		p.free = p.free[:n-1]
		p.out++
		p.hits++
		return s, nil
	}
	if p.limit > 0 && p.created >= p.limit {
		p.exhausted++
		return spare{}, ErrExhausted
	}
	p.created++
	p.out++
	p.misses++
	return spare{buf: make([]byte, p.headroom+p.payload)}, nil
}

// Release returns a buffer whose message leaves nothing behind.
func (p *Pool) Release(buf []byte) { p.Recycle(buf, msg.Shell{}) }

// Recycle implements msg.Recycler; message views call it automatically on
// final Free.
func (p *Pool) Recycle(buf []byte, shell msg.Shell) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.releases++
	if p.out > 0 {
		p.out--
	}
	if buf == nil || len(buf) != p.headroom+p.payload {
		// A grown (reallocated) buffer detached from the pool; drop it and
		// stop attributing it, keeping Created == Free + Outstanding (the
		// refcount invariant the chaos audit checks).
		if p.created > 0 {
			p.created--
		}
		return
	}
	if p.limit > 0 && p.created > p.limit {
		// The limit was squeezed below the live population; shrink toward
		// it by retiring returned buffers instead of refiling them.
		p.created--
		return
	}
	p.free = append(p.free, spare{buf, shell})
}

// Limit reports the pool's current buffer limit (0 = unlimited).
func (p *Pool) Limit() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.limit
}

// SetLimit changes the buffer limit (0 = unlimited). Shrinking below the
// live population takes effect gradually: free buffers are retired at once,
// outstanding buffers as messages release them — nothing a live message
// holds is ever pulled out from under it. The chaos fault plane uses this
// for pool squeezes; restoring the old limit re-enables allocation.
func (p *Pool) SetLimit(limit int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if limit < 0 {
		limit = 0
	}
	p.limit = limit
	if limit == 0 {
		return
	}
	for p.created > limit && len(p.free) > 0 {
		n := len(p.free)
		p.free[n-1] = spare{}
		p.free = p.free[:n-1]
		p.created--
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Created:     p.created,
		Outstanding: p.out,
		Free:        len(p.free),
		Hits:        p.hits,
		Misses:      p.misses,
		Releases:    p.releases,
		Exhausted:   p.exhausted,
	}
}

// MemoryBytes reports the heap memory the pool has committed; admission
// control charges this against the path's grant.
func (p *Pool) MemoryBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created * (p.headroom + p.payload)
}
