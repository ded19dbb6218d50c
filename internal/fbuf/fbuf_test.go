package fbuf

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"scout/internal/msg"
)

func TestGetGeometry(t *testing.T) {
	p := NewPool(1500, 64, 0, 0)
	m, err := p.Get(1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", m.Len())
	}
	if m.Headroom() != 64 {
		t.Fatalf("Headroom = %d, want 64", m.Headroom())
	}
}

func TestGetTooBig(t *testing.T) {
	p := NewPool(100, 0, 0, 0)
	if _, err := p.Get(101); err == nil {
		t.Fatal("oversized Get succeeded")
	}
}

func TestPreallocServedFromFreelist(t *testing.T) {
	p := NewPool(256, 16, 4, 0)
	s := p.Stats()
	if s.Created != 4 || s.Free != 4 {
		t.Fatalf("after prealloc: %+v", s)
	}
	m, _ := p.Get(256)
	s = p.Stats()
	if s.Hits != 1 || s.Misses != 0 || s.Outstanding != 1 || s.Free != 3 {
		t.Fatalf("after Get: %+v", s)
	}
	m.Free()
	s = p.Stats()
	if s.Free != 4 || s.Outstanding != 0 || s.Releases != 1 {
		t.Fatalf("after Free: %+v", s)
	}
}

func TestLimitEnforced(t *testing.T) {
	p := NewPool(64, 0, 0, 2)
	a, err := p.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(64); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(64); err != ErrLimit {
		t.Fatalf("third Get err = %v, want ErrLimit", err)
	}
	a.Free()
	if _, err := p.Get(64); err != nil {
		t.Fatalf("Get after Free err = %v", err)
	}
}

func TestPreallocClampedToLimit(t *testing.T) {
	p := NewPool(64, 0, 10, 3)
	if s := p.Stats(); s.Created != 3 {
		t.Fatalf("created = %d, want clamp to 3", s.Created)
	}
}

func TestRecycleNoCopies(t *testing.T) {
	msg.ResetStats()
	p := NewPool(1500, 64, 1, 1)
	for i := 0; i < 100; i++ {
		m, err := p.Get(1400)
		if err != nil {
			t.Fatal(err)
		}
		m.Push(42) // headers fit in headroom
		m.Free()
	}
	if re, ex, _ := msg.CopyStats(); re != 0 || ex != 0 {
		t.Fatalf("copies on recycled path: realloc=%d explicit=%d", re, ex)
	}
	if s := p.Stats(); s.Created != 1 {
		t.Fatalf("recycling created %d buffers, want 1", s.Created)
	}
}

func TestMemoryBytes(t *testing.T) {
	p := NewPool(1000, 24, 5, 0)
	if got := p.MemoryBytes(); got != 5*1024 {
		t.Fatalf("MemoryBytes = %d, want %d", got, 5*1024)
	}
}

func TestGrownBufferNotReturnedToFreelist(t *testing.T) {
	p := NewPool(32, 0, 1, 0)
	m, _ := p.Get(32)
	m.Push(64) // forces realloc + detach; old buf returns, grown buf is private
	m.Free()
	s := p.Stats()
	if s.Free != 1 {
		t.Fatalf("freelist = %d, want 1 (only the original buffer)", s.Free)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero payload")
		}
	}()
	NewPool(0, 0, 0, 0)
}

// Property: for any interleaving of gets and frees under a limit, the pool
// never exceeds the limit and outstanding+free == created.
func TestPropertyPoolAccounting(t *testing.T) {
	f := func(ops []bool) bool {
		const limit = 8
		p := NewPool(128, 16, 0, limit)
		var live []*msg.Msg
		for _, get := range ops {
			if get {
				m, err := p.Get(128)
				if err == ErrLimit {
					if len(live) != limit {
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				live = append(live, m)
			} else if len(live) > 0 {
				live[len(live)-1].Free()
				live = live[:len(live)-1]
			}
			s := p.Stats()
			if s.Created > limit || s.Outstanding+s.Free != s.Created || s.Outstanding != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGetFree(b *testing.B) {
	p := NewPool(1500, 64, 8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := p.Get(1400)
		if err != nil {
			b.Fatal(err)
		}
		m.Free()
	}
}

func TestErrExhaustedTypedAndCounted(t *testing.T) {
	p := NewPool(64, 0, 0, 1)
	a, err := p.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Get(64); !errors.Is(err, ErrExhausted) {
			t.Fatalf("Get at limit err = %v, want ErrExhausted", err)
		}
	}
	if s := p.Stats(); s.Exhausted != 3 {
		t.Fatalf("Exhausted = %d, want 3", s.Exhausted)
	}
	a.Free()
	if _, err := p.Get(64); err != nil {
		t.Fatalf("Get after Free err = %v", err)
	}
	// ErrLimit is the compatibility alias; both names must match.
	if !errors.Is(ErrLimit, ErrExhausted) {
		t.Fatal("ErrLimit no longer aliases ErrExhausted")
	}
}

func TestSetLimitShrinkNeverRevokesLive(t *testing.T) {
	p := NewPool(64, 0, 4, 0) // 4 preallocated, unlimited
	a, err := p.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	p.SetLimit(1)
	// The free buffers above the limit are retired at once; the live one
	// stays valid and attributed.
	s := p.Stats()
	if s.Created != 1 || s.Outstanding != 1 || s.Free != 0 {
		t.Fatalf("after shrink: created=%d out=%d free=%d, want 1/1/0", s.Created, s.Outstanding, s.Free)
	}
	if len(a.Bytes()) != 64 {
		t.Fatal("live buffer damaged by shrink")
	}
	if _, err := p.Get(64); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Get at shrunk limit err = %v, want ErrExhausted", err)
	}
	a.Free()
	if s := p.Stats(); s.Created != 1 || s.Outstanding != 0 {
		t.Fatalf("after release: created=%d out=%d, want 1/0", s.Created, s.Outstanding)
	}
	p.SetLimit(0) // unlimited again
	if _, err := p.Get(64); err != nil {
		t.Fatalf("Get after restore err = %v", err)
	}
	p.SetLimit(-5)
	if p.Limit() != 0 {
		t.Fatalf("negative limit = %d, want clamp to 0 (unlimited)", p.Limit())
	}
}

// TestGetBurst covers the burst allocation path: full bursts under one lock,
// rx_burst-style short delivery at the limit, and accounting identical to
// per-frame Gets.
func TestGetBurst(t *testing.T) {
	p := NewPool(1500, 32, 4, 0)
	var a msg.Arena
	out, err := p.GetBurst(&a, nil, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("burst delivered %d messages, want 8", len(out))
	}
	for _, m := range out {
		if m.Len() != 1000 || m.Headroom() != 32 {
			t.Fatalf("view = len %d headroom %d, want 1000/32", m.Len(), m.Headroom())
		}
		m.Free()
	}
	st := p.Stats()
	if st.Hits != 4 || st.Misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 4/4 (prealloc first, then growth)", st.Hits, st.Misses)
	}
	if st.Outstanding != 0 || st.Created != 8 {
		t.Errorf("outstanding/created = %d/%d, want 0/8", st.Outstanding, st.Created)
	}
	a.Release()
}

func TestGetBurstShortAtLimit(t *testing.T) {
	p := NewPool(100, 0, 0, 3)
	var a msg.Arena
	out, err := p.GetBurst(&a, nil, 5, 50)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if len(out) != 3 {
		t.Fatalf("short burst delivered %d messages, want 3 (the limit)", len(out))
	}
	for _, m := range out {
		m.Free()
	}
	if st := p.Stats(); st.Exhausted != 1 {
		t.Errorf("exhausted = %d, want 1", st.Exhausted)
	}
	a.Release()
}

func TestGetBurstOversized(t *testing.T) {
	p := NewPool(100, 0, 0, 0)
	var a msg.Arena
	if _, err := p.GetBurst(&a, nil, 2, 101); err == nil {
		t.Fatal("oversized GetBurst succeeded")
	}
}

// TestGetFreeAllocatesNothingAfterACollection: a message's view and refcount
// cell wait on the free list with its buffer, where a collection (which
// empties a sync.Pool) does not reach them. What the pool owns is checked, not
// the process's allocation count, which any other goroutine can move: after
// two collections Get draws no new buffer and hands back the same message.
func TestGetFreeAllocatesNothingAfterACollection(t *testing.T) {
	p := NewPool(1500, 32, 0, 4)
	first, err := p.Get(1000)
	if err != nil {
		t.Fatal(err)
	}
	first.Free()
	runtime.GC()
	runtime.GC()
	misses := p.Stats().Misses
	m, err := p.Get(1000)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Free()
	if st := p.Stats(); st.Misses != misses {
		t.Fatalf("Get after a collection drew a new buffer: %+v", st)
	}
	if m != first {
		t.Fatal("Get after a collection built a new message instead of reusing the freed one")
	}
}

// TestGetBurstZeroAlloc: a warm burst cycle — GetBurst, free all views,
// release spares — must not allocate.
func TestGetBurstZeroAlloc(t *testing.T) {
	p := NewPool(1500, 32, 16, 16)
	var a msg.Arena
	out := make([]*msg.Msg, 0, 16)
	out, _ = p.GetBurst(&a, out[:0], 16, 1000) // warm views + cells
	for _, m := range out {
		m.Free()
	}
	if allocs := testing.AllocsPerRun(100, func() {
		out, _ = p.GetBurst(&a, out[:0], 16, 1000)
		for _, m := range out {
			m.Free()
		}
	}); allocs != 0 {
		t.Errorf("warm GetBurst cycle allocates %.0f times, want 0", allocs)
	}
	a.Release()
}
