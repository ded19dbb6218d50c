package core

// Flow cache: the device-edge half of the fast-path engine (§4.1 of the
// paper argues classification should happen "as early as possible — in the
// interrupt handler"). The first frame of a flow pays the full hop-by-hop
// classification walk; on success the device records a flat header
// fingerprint → *Path binding here, and every later frame of the flow
// resolves in one map lookup at interrupt time, skipping the router chain
// entirely.
//
// Correctness rests on two rules, both enforced in this file's callers:
//
//   - Only keys extracted by netdev.FlowKeyOf are ever cached, and the
//     extractor validates everything the demux chain would (link address,
//     EtherType, IP version, header checksum, fragmentation, protocol).
//     Two frames with the same key are therefore classified identically by
//     the full walk — as long as the demux tables have not changed.
//   - Any event that can change a classification decision invalidates. A
//     path's death removes its bindings (Path.Destroy, in every cache
//     registered on its graph); a change to what the walk would decide —
//     demux tables (UDP port bind/unbind), rules (Graph.AddRule), ARP/route
//     learning — empties the cache (Graph.InvalidateFlows).
//
// The cache holds no timing state and charges no CPU itself; hits and misses
// charge exactly the same virtual-clock costs as before (the device IRQ and
// per-frame stage costs are unchanged), so every experiment's virtual-time
// output is byte-identical with the cache on or off. What the cache changes
// is only which host code computes that identical result.

// FlowKey is a flat fingerprint of the headers that determine a frame's
// classification: EtherType, IP protocol, source/destination address, and
// transport ports. It is extracted from the raw frame without allocation
// (netdev.FlowKeyOf) and is a comparable value type, so it can key a map
// directly.
type FlowKey struct {
	EtherType uint16
	Proto     uint8
	Src, Dst  [4]byte
	SrcPort   uint16
	DstPort   uint16
}

// FlowCacheStats is a snapshot of cache behaviour, surfaced through
// pathtrace metrics and pathtop. The counters are conservation-clean:
// Inserts == Evictions + Invalidations + DeadLookups + Len.
type FlowCacheStats struct {
	Hits          int64 // lookups resolved from the cache
	Misses        int64 // lookups that fell back to the full demux walk
	Inserts       int64 // successful walk results recorded
	Evictions     int64 // entries displaced by the capacity bound
	Invalidations int64 // entries removed by invalidation (destroy/table change)
	DeadLookups   int64 // entries removed by Lookup's defensive liveness check
}

// slot is one cached binding; a nil path marks the slot free.
type slot struct {
	key  FlowKey
	path *Path
}

// FlowCache is a bounded map from flow fingerprints to live paths: a ring of
// slots filled in insertion order, and an index from key to slot. A binding
// lives until it is invalidated or until the fill cursor comes round to its
// slot again, cap inserts later (FIFO eviction). It is single-owner like
// every other data-path structure in the simulation: all mutation happens
// from sim.Engine event context (the scoutlint flowguard check enforces this
// statically).
type FlowCache struct {
	slots []slot
	index map[FlowKey]int32
	next  int // fill cursor: the slot the next Insert takes
	gen   uint64
	stats FlowCacheStats
}

// NewFlowCache returns a cache bounded to cap entries; cap must be positive.
func NewFlowCache(cap int) *FlowCache {
	if cap <= 0 {
		cap = 1
	}
	return &FlowCache{slots: make([]slot, cap), index: make(map[FlowKey]int32, cap)}
}

// Gen reports the cache's invalidation generation: it advances whenever an
// entry is removed for a correctness reason (path destroy, table change,
// dead-path lookup, a key re-bound to another path). Burst classification
// memoizes a resolved key → path binding outside the cache for the duration
// of a burst; the memo is valid only while the generation is unchanged,
// because any event that could change a classification decision funnels
// through an invalidation here. Capacity evictions do not advance the
// generation — they drop a binding that is still correct.
func (fc *FlowCache) Gen() uint64 { return fc.gen }

// free empties slot i and drops its key from the index.
func (fc *FlowCache) free(i int) {
	delete(fc.index, fc.slots[i].key)
	fc.slots[i] = slot{}
}

// Lookup resolves a fingerprint to its cached path. A hit never returns a
// destroyed path: Path.Destroy removes the path's entries eagerly, and the
// liveness check here backs it up for a cache its graph does not know.
func (fc *FlowCache) Lookup(k FlowKey) (*Path, bool) {
	if i, ok := fc.index[k]; ok {
		if p := fc.slots[i].path; !p.Dead() {
			fc.stats.Hits++
			return p, true
		}
		// Counted apart from Invalidations so Destroy's removal and this
		// backstop never double-count one logical invalidation.
		fc.free(int(i))
		fc.stats.DeadLookups++
		fc.gen++
	}
	fc.stats.Misses++
	return nil, false
}

// Insert records a successful full-walk classification of a frame whose
// fingerprint is k. The binding takes the slot under the fill cursor; a
// binding still there is the oldest one, and is evicted. A key that is
// already bound is re-bound — the old binding counts as invalidated and the
// key's age restarts.
func (fc *FlowCache) Insert(k FlowKey, p *Path) {
	if p == nil || p.Dead() {
		return
	}
	if i, ok := fc.index[k]; ok {
		fc.free(int(i))
		fc.stats.Invalidations++
		fc.gen++
	}
	if fc.slots[fc.next].path != nil {
		fc.free(fc.next)
		fc.stats.Evictions++
	}
	fc.slots[fc.next] = slot{key: k, path: p}
	fc.index[k] = int32(fc.next)
	fc.next = (fc.next + 1) % len(fc.slots)
	fc.stats.Inserts++
}

// InvalidatePath removes every entry bound to p. Path.Destroy calls it on
// every cache registered with the path's graph; splice and multipath re-pin
// call it on a live path whose frames must re-classify. The generation
// advances even when no entry matches: the path's entries may have been
// evicted for capacity while a burst memo still holds the binding.
func (fc *FlowCache) InvalidatePath(p *Path) {
	fc.gen++
	if p == nil || len(fc.index) == 0 {
		return
	}
	for i := range fc.slots {
		if fc.slots[i].path == p {
			fc.free(i)
			fc.stats.Invalidations++
		}
	}
}

// InvalidateAll empties the cache. Demux-table and rule changes use this:
// correctness only needs "never serve a stale decision", and table changes
// are rare control-plane events, so wholesale invalidation is the simple
// safe choice.
func (fc *FlowCache) InvalidateAll() {
	fc.gen++
	if len(fc.index) == 0 {
		return
	}
	fc.stats.Invalidations += int64(len(fc.index))
	clear(fc.index)
	clear(fc.slots)
}

// Len reports the number of live entries.
func (fc *FlowCache) Len() int { return len(fc.index) }

// Stats returns a snapshot of the cache counters.
func (fc *FlowCache) Stats() FlowCacheStats { return fc.stats }
