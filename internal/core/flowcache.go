package core

// Flow cache: the device-edge half of the fast-path engine (§4.1 of the
// paper argues classification should happen "as early as possible — in the
// interrupt handler"). The first frame of a flow pays the full hop-by-hop
// Demux walk; on success the device records a flat header fingerprint →
// *Path binding here, and every later frame of the flow resolves in one map
// lookup at interrupt time, skipping the router chain entirely.
//
// Correctness rests on two rules, both enforced in this file's callers:
//
//   - Only keys extracted by netdev.FlowKeyOf are ever cached, and the
//     extractor validates everything the demux chain would (link address,
//     EtherType, IP version, header checksum, fragmentation, protocol).
//     Two frames with the same key are therefore classified identically by
//     the full walk — as long as the demux tables have not changed.
//   - Any event that can change a classification decision invalidates: path
//     destruction (a per-path destroy hook installed at Insert), demux-table
//     changes (UDP port bind/unbind), rule changes (Graph.AddRule), and
//     ARP/route learning — all routed through Graph.InvalidateFlows.
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

// flowEntry is one cached binding. seq identifies the insertion that created
// it: re-inserting a key after invalidation bumps the sequence, which lets
// evictOldest and compact tell a live order slot from a stale one left by an
// earlier life of the same key.
type flowEntry struct {
	path *Path
	seq  uint64
}

// orderSlot records one insertion in FIFO order. A slot is live iff the
// key's current entry carries the same sequence number.
type orderSlot struct {
	key FlowKey
	seq uint64
}

// FlowCache is a bounded map from flow fingerprints to live paths. It is
// single-owner like every other data-path structure in the simulation: all
// mutation happens from sim.Engine event context (the scoutlint flowclock
// check enforces this statically).
type FlowCache struct {
	cap     int
	entries map[FlowKey]flowEntry
	order   []orderSlot    // insertion order, oldest first (FIFO eviction)
	hooked  map[*Path]bool // paths carrying our destroy hook
	nextSeq uint64
	gen     uint64
	stats   FlowCacheStats
}

// NewFlowCache returns a cache bounded to cap entries; cap must be positive.
func NewFlowCache(cap int) *FlowCache {
	if cap <= 0 {
		cap = 1
	}
	return &FlowCache{
		cap:     cap,
		entries: make(map[FlowKey]flowEntry, cap),
		hooked:  make(map[*Path]bool),
	}
}

// Gen reports the cache's invalidation generation: it advances whenever an
// entry is removed for a correctness reason (path destroy, table change,
// dead-path lookup). Burst classification memoizes a resolved key → path
// binding outside the cache for the duration of a burst; the memo is valid
// only while the generation is unchanged, because any event that could
// change a classification decision funnels through an invalidation here.
// Capacity evictions do not advance the generation — they drop a binding
// that is still correct.
func (fc *FlowCache) Gen() uint64 { return fc.gen }

// Lookup resolves a fingerprint to its cached path. A hit never returns a
// destroyed path: the destroy hook removes entries eagerly, and a defensive
// liveness check backs it up.
func (fc *FlowCache) Lookup(k FlowKey) (*Path, bool) {
	e, ok := fc.entries[k]
	if ok && e.path.Dead() {
		// Defensive: Destroy should have invalidated already. Counted apart
		// from Invalidations so the hook path and this backstop never
		// double-count one logical invalidation.
		delete(fc.entries, k)
		fc.stats.DeadLookups++
		fc.gen++
		ok = false
	}
	if ok {
		fc.stats.Hits++
		return e.path, true
	}
	fc.stats.Misses++
	return nil, false
}

// Insert records a successful full-walk classification. Only called after
// Graph.Demux returned a live path for a frame whose fingerprint is k. The
// first entry for a path installs a destroy hook so the binding can never
// outlive it.
func (fc *FlowCache) Insert(k FlowKey, p *Path) {
	if p == nil || p.Dead() {
		return
	}
	fc.nextSeq++
	seq := fc.nextSeq
	if _, exists := fc.entries[k]; !exists {
		for len(fc.entries) >= fc.cap {
			fc.evictOldest()
		}
	}
	// Re-inserting a key leaves its old order slot behind as a stale
	// (sequence-mismatched) entry; eviction and compaction skip it, so the
	// key's FIFO age restarts at this insertion and the key occupies exactly
	// one live slot.
	fc.entries[k] = flowEntry{path: p, seq: seq}
	fc.order = append(fc.order, orderSlot{key: k, seq: seq})
	fc.stats.Inserts++
	if !fc.hooked[p] {
		fc.hooked[p] = true
		p.AddDestroyHook(func(dead *Path) { fc.InvalidatePath(dead) })
	}
	fc.compact()
}

// evictOldest removes the oldest still-live entry, skipping order slots that
// are stale: cleared by invalidation, or superseded by a re-insert of the
// same key (the sequence check).
func (fc *FlowCache) evictOldest() {
	for len(fc.order) > 0 {
		s := fc.order[0]
		fc.order = fc.order[1:]
		if e, ok := fc.entries[s.key]; ok && e.seq == s.seq {
			delete(fc.entries, s.key)
			fc.stats.Evictions++
			return
		}
	}
	// order exhausted but entries non-empty should be impossible; clear the
	// whole map defensively rather than loop forever (dropping everything is
	// deterministic; dropping one arbitrary entry would not be).
	for k := range fc.entries {
		delete(fc.entries, k)
		fc.stats.Evictions++
	}
}

// compact bounds the order slate: invalidations and re-inserts leave stale
// slots behind, so periodically rebuild it from the live survivors.
func (fc *FlowCache) compact() {
	if len(fc.order) <= 2*fc.cap {
		return
	}
	kept := fc.order[:0]
	for _, s := range fc.order {
		if e, ok := fc.entries[s.key]; ok && e.seq == s.seq {
			kept = append(kept, s)
		}
	}
	fc.order = kept
}

// InvalidatePath removes every entry bound to p (its destroy hook calls
// this; it is also safe to call directly). The generation advances even when
// no entry matches: the hook can fire after the path's entries were evicted
// for capacity, and a burst memo may still hold the binding. A path leaves
// hooked only when it dies: a live path keeps its one destroy hook, so
// forgetting it here would make the next Insert install another.
func (fc *FlowCache) InvalidatePath(p *Path) {
	for k, e := range fc.entries {
		if e.path == p {
			delete(fc.entries, k)
			fc.stats.Invalidations++
		}
	}
	if p.Dead() {
		delete(fc.hooked, p)
	}
	fc.gen++
}

// InvalidateAll empties the cache. Demux-table and rule changes use this:
// correctness only needs "never serve a stale decision", and table changes
// are rare control-plane events, so wholesale invalidation is the simple
// safe choice.
func (fc *FlowCache) InvalidateAll() {
	fc.gen++
	n := len(fc.entries)
	if n == 0 && len(fc.order) == 0 {
		return
	}
	fc.stats.Invalidations += int64(n)
	clear(fc.entries)
	fc.order = fc.order[:0]
}

// Len reports the number of live entries.
func (fc *FlowCache) Len() int { return len(fc.entries) }

// Stats returns a snapshot of the cache counters.
func (fc *FlowCache) Stats() FlowCacheStats { return fc.stats }
