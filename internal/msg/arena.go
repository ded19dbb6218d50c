package msg

import (
	"fmt"
	"sync/atomic"
)

// Arena is a per-burst free list of message views and refcount cells layered
// on the package's recycling pools. Burst producers (traffic injectors, the
// burst benchmarks) build N pool-backed views per batch; drawing each from
// sync.Pool costs two pool round-trips per frame. An arena reserves the
// pairs for the whole burst up front, hands them out one FromBuffer at a
// time, and returns the spares in bulk — the lifecycle of the views it hands
// out is unchanged: they are freed by the normal Msg.Free, which recycles
// them to the shared pools or, with the buffer, to a pool that is a Recycler
// (not to the arena).
//
// An arena is single-owner like every other data-path structure here; it
// must not be shared across goroutines.
type Arena struct {
	views []*Msg
	refs  []*atomic.Int32
}

// Reserve tops the arena up to n spare view/ref pairs, drawing from the
// shared pools.
func (a *Arena) Reserve(n int) {
	for len(a.views) < n {
		a.views = append(a.views, msgPool.Get().(*Msg))
	}
	for len(a.refs) < n {
		a.refs = append(a.refs, refsPool.Get().(*atomic.Int32))
	}
}

// Spare reports how many view/ref pairs are currently reserved.
func (a *Arena) Spare() int {
	if len(a.views) < len(a.refs) {
		return len(a.views)
	}
	return len(a.refs)
}

// FromBuffer is msg.FromBuffer drawing the view struct and refcount cell
// from the arena's reserve, topping up from the shared pools when the
// reserve is empty. A nil pool falls back to the plain FromBuffer: such
// views are GC-owned and gain nothing from recycling.
//
//scout:assert an out-of-range view is fbuf ownership corruption; continuing would alias foreign memory
func (a *Arena) FromBuffer(buf []byte, off, end int, pool Releaser) *Msg {
	if pool == nil {
		return FromBuffer(buf, off, end, nil)
	}
	if off < 0 || end < off || end > len(buf) {
		panic(fmt.Sprintf("msg: bad view [%d:%d) over %d bytes", off, end, len(buf)))
	}
	var m *Msg
	if n := len(a.views) - 1; n >= 0 {
		m = a.views[n]
		a.views[n] = nil
		a.views = a.views[:n]
	} else {
		m = msgPool.Get().(*Msg)
	}
	var refs *atomic.Int32
	if n := len(a.refs) - 1; n >= 0 {
		refs = a.refs[n]
		a.refs[n] = nil
		a.refs = a.refs[:n]
	} else {
		refs = refsPool.Get().(*atomic.Int32)
	}
	*m = Msg{buf: buf, off: off, end: end, refs: refs, pool: pool}
	refs.Store(1)
	return m
}

// Release returns every unused spare to the shared pools. Call it when the
// burst producer is done; views already handed out are unaffected.
func (a *Arena) Release() {
	for i, m := range a.views {
		a.views[i] = nil
		msgPool.Put(m)
	}
	a.views = a.views[:0]
	for i, r := range a.refs {
		a.refs[i] = nil
		refsPool.Put(r)
	}
	a.refs = a.refs[:0]
}
