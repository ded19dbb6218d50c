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
// bump Invalidations — the same counter the destroy hook bumps — so one
// logical invalidation could count twice. The branch now has its own
// counter.
func TestFlowCacheDeadLookupCounter(t *testing.T) {
	fc := NewFlowCache(4)
	dead := &Path{dead: true}
	// Plant the entry directly: the defensive branch exists for exactly the
	// "hook did not fire" corruption that cannot be produced through the
	// public API.
	fc.entries[fkey(1)] = flowEntry{path: dead, seq: 1}
	fc.stats.Inserts++ // keep the books consistent with the planted entry

	genBefore := fc.Gen()
	if _, hit := fc.Lookup(fkey(1)); hit {
		t.Fatal("lookup returned a dead path")
	}
	st := fc.Stats()
	if st.DeadLookups != 1 {
		t.Errorf("deadLookups = %d, want 1", st.DeadLookups)
	}
	if st.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0 (defensive removal must not share the hook's counter)", st.Invalidations)
	}
	if st.Misses != 1 || st.Hits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/1", st.Hits, st.Misses)
	}
	if fc.Gen() == genBefore {
		t.Error("dead-path removal did not advance the generation")
	}
	conserved(t, fc)
}

// TestFlowCacheDestroyHookInvalidates pins the normal (hook) invalidation
// accounting: destroying a cached path counts one invalidation and zero
// dead lookups.
func TestFlowCacheDestroyHookInvalidates(t *testing.T) {
	fc := NewFlowCache(4)
	p := &Path{}
	fc.Insert(fkey(1), p)
	p.Destroy()
	if _, hit := fc.Lookup(fkey(1)); hit {
		t.Fatal("destroyed path still cached")
	}
	st := fc.Stats()
	if st.Invalidations != 1 || st.DeadLookups != 0 {
		t.Errorf("invalidations/deadLookups = %d/%d, want 1/0", st.Invalidations, st.DeadLookups)
	}
	conserved(t, fc)
}

// TestFlowCacheOneHookPerLivePath is the regression test for the destroy-hook
// leak: InvalidateAll (every UDP bind/unbind and ARP learn) and a direct
// InvalidatePath (splice, multipath re-pin) used to forget that a still-live
// path carried the cache's hook, so the next Insert appended another — a
// long-lived path beside control-plane churn grew one closure per round and
// its Destroy ran InvalidatePath that many times.
func TestFlowCacheOneHookPerLivePath(t *testing.T) {
	fc := NewFlowCache(4)
	p := &Path{}
	for round := 0; round < 1000; round++ {
		fc.Insert(fkey(1), p)
		if round%2 == 0 {
			fc.InvalidateAll()
		} else {
			fc.InvalidatePath(p)
		}
	}
	fc.Insert(fkey(1), p)
	if n := len(p.onDestroy); n != 1 {
		t.Fatalf("live path carries %d destroy hooks after 1000 invalidate+insert rounds, want 1", n)
	}
	gen := fc.Gen()
	p.Destroy()
	if got := fc.Gen() - gen; got != 1 {
		t.Errorf("Destroy ran InvalidatePath %d times, want 1", got)
	}
	if _, hit := fc.Lookup(fkey(1)); hit {
		t.Error("destroyed path still cached")
	}
	if len(fc.hooked) != 0 {
		t.Errorf("dead path still in hooked (%d entries)", len(fc.hooked))
	}
	conserved(t, fc)
}

// TestFlowCacheEvictionStaleAndDuplicateSlots drives evictOldest through an
// order slate full of stale and superseded slots.
func TestFlowCacheEvictionStaleAndDuplicateSlots(t *testing.T) {
	fc := NewFlowCache(2)
	pA, pB, q := &Path{}, &Path{}, &Path{}
	fc.Insert(fkey(1), pA)
	fc.Insert(fkey(2), q)
	fc.InvalidatePath(pA)  // k1 slot stale
	fc.Insert(fkey(1), pB) // k1 has a stale and a live slot
	fc.Insert(fkey(3), q)  // eviction must skip k1's stale slot, take k2
	if _, hit := fc.Lookup(fkey(1)); !hit {
		t.Error("live re-insert evicted via its stale slot")
	}
	if _, hit := fc.Lookup(fkey(3)); !hit {
		t.Error("newest entry missing")
	}
	if fc.Len() != 2 {
		t.Errorf("len = %d, want 2", fc.Len())
	}
	conserved(t, fc)
}

// TestFlowCacheInvalidateAllThenReinsert checks the wholesale invalidation
// resets the order slate and generation, and the cache repopulates cleanly.
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
	if fc.Len() != 0 || len(fc.order) != 0 {
		t.Fatalf("cache not empty after InvalidateAll: len=%d order=%d", fc.Len(), len(fc.order))
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

// TestFlowCacheOrderExhaustedFullClear drives the defensive branch of
// evictOldest: entries present with no order slots at all (bookkeeping
// corruption) clears the whole map deterministically instead of looping.
func TestFlowCacheOrderExhaustedFullClear(t *testing.T) {
	fc := NewFlowCache(2)
	p := &Path{}
	// Plant entries without order slots — unreachable via the public API.
	fc.entries[fkey(1)] = flowEntry{path: p, seq: 1}
	fc.entries[fkey(2)] = flowEntry{path: p, seq: 2}
	fc.stats.Inserts += 2
	fc.Insert(fkey(3), p)
	if fc.Len() != 1 {
		t.Errorf("len = %d, want 1 (defensive full clear then insert)", fc.Len())
	}
	if _, hit := fc.Lookup(fkey(3)); !hit {
		t.Error("inserted key missing after defensive clear")
	}
	if st := fc.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	conserved(t, fc)
}

// TestFlowCacheCompactBoundsOrder churns invalidate/re-insert cycles and
// requires the order slate to stay bounded by compaction.
func TestFlowCacheCompactBoundsOrder(t *testing.T) {
	fc := NewFlowCache(8)
	for i := 0; i < 1000; i++ {
		p := &Path{}
		fc.Insert(fkey(i%8), p)
		fc.InvalidatePath(p)
	}
	if len(fc.order) > 2*fc.cap+1 {
		t.Errorf("order slate unbounded: %d slots for cap %d", len(fc.order), fc.cap)
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
