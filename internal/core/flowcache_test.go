package core

import "testing"

func fkey(i int) FlowKey {
	return FlowKey{EtherType: 0x0800, Proto: 17, SrcPort: uint16(i), DstPort: 7}
}

// conserved checks the counter conservation law: every insert is eventually
// accounted for by exactly one of eviction, invalidation, a dead-path
// lookup, or still being resident.
func conserved(t *testing.T, fc *FlowCache) {
	t.Helper()
	st := fc.Stats()
	if got := st.Evictions + st.Invalidations + st.DeadLookups + int64(fc.Len()); st.Inserts != got {
		t.Errorf("conservation violated: inserts=%d but evictions+invalidations+deadLookups+len=%d (%+v len=%d)",
			st.Inserts, got, st, fc.Len())
	}
}

// TestFlowCacheReinsertFIFO is the regression test for the re-insert
// eviction-order bug: a key that was invalidated and later re-inserted used
// to occupy two order slots, so eviction popped its stale slot and threw out
// the re-inserted (newest) entry ahead of genuinely older ones.
func TestFlowCacheReinsertFIFO(t *testing.T) {
	fc := NewFlowCache(4)
	pA, pB, pOther := &Path{}, &Path{}, &Path{}

	fc.Insert(fkey(1), pA)
	fc.InvalidatePath(pA) // k1's order slot goes stale
	for i := 2; i <= 4; i++ {
		fc.Insert(fkey(i), pOther)
	}
	fc.Insert(fkey(1), pB) // re-insert: k1 is now the NEWEST entry
	fc.Insert(fkey(5), pOther)

	if _, hit := fc.Lookup(fkey(1)); !hit {
		t.Error("re-inserted key evicted ahead of older entries (stale order slot matched)")
	}
	if _, hit := fc.Lookup(fkey(2)); hit {
		t.Error("oldest live entry survived an at-capacity insert")
	}
	if st := fc.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if fc.Len() != 4 {
		t.Errorf("len = %d, want cap 4", fc.Len())
	}
	conserved(t, fc)
}

// TestFlowCacheReinsertRestartsAge covers the complementary direction: a
// re-inserted key's FIFO age restarts, so an insert-invalidate-reinsert
// cycle plus a fill leaves the re-insert treated as new.
func TestFlowCacheReinsertRestartsAge(t *testing.T) {
	fc := NewFlowCache(2)
	pA, pB, q := &Path{}, &Path{}, &Path{}
	fc.Insert(fkey(1), pA)
	fc.Insert(fkey(2), q)
	fc.InvalidatePath(pA)
	fc.Insert(fkey(1), pB) // cache: k2 (older), k1 (newer)
	fc.Insert(fkey(3), q)  // evicts exactly one: must be k2
	if _, hit := fc.Lookup(fkey(1)); !hit {
		t.Error("re-inserted key lost its refreshed age")
	}
	if _, hit := fc.Lookup(fkey(2)); hit {
		t.Error("oldest entry not evicted")
	}
	conserved(t, fc)
}

// TestFlowCacheDeadLookupCounter is the regression test for the
// double-counted invalidation: Lookup's defensive dead-path branch used to
// bump Invalidations — the same counter Destroy's removal bumps — so one
// logical invalidation could count twice. The branch has its own counter. A
// graph-less path reaches it: its Destroy knows no cache to invalidate.
func TestFlowCacheDeadLookupCounter(t *testing.T) {
	fc := NewFlowCache(4)
	p := &Path{}
	fc.Insert(fkey(1), p)
	p.Destroy()

	genBefore := fc.Gen()
	if _, hit := fc.Lookup(fkey(1)); hit {
		t.Fatal("lookup returned a dead path")
	}
	st := fc.Stats()
	if st.DeadLookups != 1 {
		t.Errorf("deadLookups = %d, want 1", st.DeadLookups)
	}
	if st.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0 (defensive removal must not share Destroy's counter)", st.Invalidations)
	}
	if st.Misses != 1 || st.Hits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/1", st.Hits, st.Misses)
	}
	if fc.Gen() == genBefore {
		t.Error("dead-path removal did not advance the generation")
	}
	conserved(t, fc)
}

// TestFlowCacheDestroyHookInvalidates pins the one rule for a path's death:
// Destroy removes the path's bindings from every cache registered on its
// graph, eagerly (one invalidation each, zero dead lookups). The path has no
// UDP stage, so no stage's Destroy empties the cache first.
func TestFlowCacheDestroyHookInvalidates(t *testing.T) {
	g, a := buildChain(t, nil, nil)
	fc, other := NewFlowCache(4), NewFlowCache(4)
	g.RegisterFlowCache(fc)
	g.RegisterFlowCache(other)
	p, err := g.CreatePath(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	keep := &Path{}
	fc.Insert(fkey(1), p)
	fc.Insert(fkey(2), keep)
	fc.Insert(fkey(3), p)
	other.Insert(fkey(1), p)
	p.Destroy()
	if fc.Len() != 1 || other.Len() != 0 {
		t.Fatalf("after Destroy: len = %d and %d, want 1 and 0 (bindings must leave before any lookup)", fc.Len(), other.Len())
	}
	if _, hit := fc.Lookup(fkey(1)); hit {
		t.Fatal("destroyed path still cached")
	}
	if got, hit := fc.Lookup(fkey(2)); !hit || got != keep {
		t.Error("another path's binding was removed")
	}
	st := fc.Stats()
	if st.Invalidations != 2 || st.DeadLookups != 0 {
		t.Errorf("invalidations/deadLookups = %d/%d, want 2/0", st.Invalidations, st.DeadLookups)
	}
	conserved(t, fc)
	conserved(t, other)
}

// TestFlowCacheRebindKeepsLaw: inserting a key that is already bound replaces
// the binding, and the replaced one counts as an invalidation — Inserts used
// to run one ahead of the law's right-hand side.
func TestFlowCacheRebindKeepsLaw(t *testing.T) {
	fc := NewFlowCache(4)
	pA, pB := &Path{}, &Path{}
	fc.Insert(fkey(1), pA)
	g := fc.Gen()
	fc.Insert(fkey(1), pB)
	if got, hit := fc.Lookup(fkey(1)); !hit || got != pB {
		t.Error("re-bound key does not resolve to the new path")
	}
	if fc.Gen() == g {
		t.Error("re-binding a key did not advance the generation (a burst memo may hold the old path)")
	}
	if st := fc.Stats(); fc.Len() != 1 || st.Inserts != 2 || st.Invalidations != 1 {
		t.Errorf("len=%d %+v, want len 1, 2 inserts, 1 invalidation", fc.Len(), st)
	}
	conserved(t, fc)
}

// TestFlowCacheInvalidateAllThenReinsert checks the wholesale invalidation
// empties the cache and advances the generation, and the cache repopulates
// cleanly.
func TestFlowCacheInvalidateAllThenReinsert(t *testing.T) {
	fc := NewFlowCache(4)
	p := &Path{}
	for i := 1; i <= 4; i++ {
		fc.Insert(fkey(i), p)
	}
	genBefore := fc.Gen()
	fc.InvalidateAll()
	if fc.Gen() == genBefore {
		t.Error("InvalidateAll did not advance the generation")
	}
	if fc.Len() != 0 {
		t.Fatalf("cache not empty after InvalidateAll: len=%d", fc.Len())
	}
	// An empty-cache InvalidateAll still advances the generation: a burst
	// memo can hold a binding the cache already evicted.
	genBefore = fc.Gen()
	fc.InvalidateAll()
	if fc.Gen() == genBefore {
		t.Error("empty InvalidateAll did not advance the generation")
	}
	for i := 1; i <= 4; i++ {
		fc.Insert(fkey(i), p)
	}
	for i := 1; i <= 4; i++ {
		if _, hit := fc.Lookup(fkey(i)); !hit {
			t.Errorf("key %d missing after repopulation", i)
		}
	}
	conserved(t, fc)
}

// TestFlowCacheGenStability pins what the generation must NOT do: advance on
// inserts or capacity evictions, which would needlessly kill in-burst
// sharing.
func TestFlowCacheGenStability(t *testing.T) {
	fc := NewFlowCache(2)
	p := &Path{}
	g := fc.Gen()
	fc.Insert(fkey(1), p)
	fc.Insert(fkey(2), p)
	fc.Insert(fkey(3), p) // capacity eviction
	if fc.Gen() != g {
		t.Error("generation advanced on insert/eviction; only invalidations may advance it")
	}
	fc.InvalidatePath(p)
	if fc.Gen() == g {
		t.Error("generation did not advance on path invalidation")
	}
	conserved(t, fc)
}
