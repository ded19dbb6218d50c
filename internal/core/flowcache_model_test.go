package core

import "testing"

// flowModel is the reference FlowCache: the bindings of the last cap inserts,
// oldest first. A removed binding leaves a nil path behind, and ages out like
// any other.
type flowModel struct {
	cap  int
	fifo []flowBinding
}

type flowBinding struct {
	key  FlowKey
	path *Path
}

func (m *flowModel) find(k FlowKey) *flowBinding {
	for i := range m.fifo {
		if b := &m.fifo[i]; b.path != nil && b.key == k {
			return b
		}
	}
	return nil
}

func (m *flowModel) insert(k FlowKey, p *Path) {
	if b := m.find(k); b != nil {
		b.path = nil
	}
	if m.fifo = append(m.fifo, flowBinding{k, p}); len(m.fifo) > m.cap {
		m.fifo = m.fifo[1:]
	}
}

func (m *flowModel) lookup(k FlowKey) *Path {
	b := m.find(k)
	if b == nil {
		return nil
	}
	if b.path.Dead() {
		b.path = nil
		return nil
	}
	return b.path
}

func (m *flowModel) invalidate(p *Path) {
	for i := range m.fifo {
		if m.fifo[i].path == p {
			m.fifo[i].path = nil
		}
	}
}

func (m *flowModel) len() (n int) {
	for _, b := range m.fifo {
		if b.path != nil {
			n++
		}
	}
	return n
}

// The model test's op encoding: one byte per step, op = b%6, argument = b/6.
// Eight keys over a cache of four, so the ring wraps; four path slots, of
// which the last holds graph-less paths, whose Destroy reaches no cache and
// leaves the removal to Lookup's liveness check.
const (
	opInsert = iota // key arg%8, path slot arg/8%4
	opLookup        // key arg%8
	opInvalidatePath
	opInvalidateAll
	opDestroy // path slot arg%4
	opRespawn // path slot arg%4: a fresh path if the slot's is dead
	numOps
)

func flowOp(op, key, slot int) byte { return byte(op + numOps*(key+8*slot)) }

// flowSeeds are the sequences of the unit tests this target replaced.
func flowSeeds() [][]byte {
	ins := func(k, p int) byte { return flowOp(opInsert, k, p) }
	look := func(k int) byte { return flowOp(opLookup, k, 0) }
	invp := func(p int) byte { return flowOp(opInvalidatePath, p, 0) }
	destroy := func(p int) byte { return flowOp(opDestroy, p, 0) }
	all := flowOp(opInvalidateAll, 0, 0)

	// OneHookPerLivePath: a live path re-inserted between wholesale and
	// per-path invalidations, then destroyed.
	var hook []byte
	for round := 0; round < 16; round++ {
		hook = append(hook, ins(1, 0), all, ins(1, 0), invp(0))
	}
	hook = append(hook, ins(1, 0), destroy(0), look(1))

	// CompactBoundsOrder: invalidate/re-insert churn over every key.
	var churn []byte
	for i := 0; i < 64; i++ {
		churn = append(churn, ins(i%8, i%3), invp(i%3))
	}

	return [][]byte{
		hook,
		churn,
		// EvictionStaleAndDuplicateSlots: a key invalidated and re-bound
		// while the ring fills and wraps around it.
		{ins(1, 0), ins(2, 1), invp(0), ins(1, 2), ins(3, 1), ins(4, 1), ins(5, 1), look(1), look(2), look(5)},
		// DestroyHookInvalidates and DeadLookupCounter, as they were.
		{ins(1, 0), destroy(0), look(1)},
		{ins(1, 3), destroy(3), look(1), ins(1, 3), flowOp(opRespawn, 3, 0), ins(1, 3), look(1)},
		// Re-binding a bound key, at and away from the fill cursor.
		{ins(1, 0), ins(1, 1), ins(2, 0), ins(3, 0), ins(4, 0), ins(2, 1), ins(5, 0), look(1), look(2)},
	}
}

// FuzzFlowCacheModel drives a FlowCache registered on a real graph, and the
// model beside it, from a byte string. After every step: the same hit or
// miss on the same path, never a dead path, Len within the capacity and equal
// to the model's, the conservation law, and a generation that never runs
// backwards and that only a correctness removal advances.
func FuzzFlowCacheModel(f *testing.F) {
	for _, seed := range flowSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		const size = 4
		g, a := buildChain(t, nil, nil)
		fc, m := NewFlowCache(size), &flowModel{cap: size}
		g.RegisterFlowCache(fc)
		spawn := func(slot int) *Path {
			if slot == 3 {
				return &Path{}
			}
			p, err := g.CreatePath(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		var paths [4]*Path
		for i := range paths {
			paths[i] = spawn(i)
		}

		for step, b := range ops {
			op, arg := int(b)%numOps, int(b)/numOps
			key, p := fkey(arg%8), paths[arg%4]
			gen, before := fc.Gen(), fc.Stats()
			removes := true // does this step remove for correctness?
			switch op {
			case opInsert:
				p = paths[arg/8%4]
				removes = m.find(key) != nil && !p.Dead()
				if !p.Dead() {
					m.insert(key, p)
				}
				fc.Insert(key, p)
				if p.Dead() && fc.Stats() != before {
					t.Fatalf("step %d: inserting a dead path changed the cache: %+v → %+v", step, before, fc.Stats())
				}
			case opLookup:
				b := m.find(key)
				removes = b != nil && b.path.Dead()
				want := m.lookup(key)
				got, hit := fc.Lookup(key)
				if hit != (want != nil) || got != want {
					t.Fatalf("step %d: Lookup = %v, %v; model says %v", step, got, hit, want)
				}
				if hit && got.Dead() {
					t.Fatalf("step %d: Lookup returned a dead path", step)
				}
			case opInvalidatePath:
				m.invalidate(p)
				fc.InvalidatePath(p)
			case opInvalidateAll:
				m.fifo = nil
				fc.InvalidateAll()
			case opDestroy:
				removes = !p.Dead() && p.graph != nil
				if removes {
					m.invalidate(p)
				}
				p.Destroy()
			case opRespawn:
				removes = false
				if p.Dead() {
					paths[arg%4] = spawn(arg % 4)
				}
			}
			if fc.Len() != m.len() || fc.Len() > size {
				t.Fatalf("step %d: len = %d, model %d, cap %d", step, fc.Len(), m.len(), size)
			}
			conserved(t, fc)
			if removes != (fc.Gen() > gen) || fc.Gen() < gen {
				t.Fatalf("step %d (op %d): generation %d → %d, correctness removal = %v", step, op, gen, fc.Gen(), removes)
			}
		}
		for k := 0; k < 8; k++ {
			want := m.lookup(fkey(k))
			if got, _ := fc.Lookup(fkey(k)); got != want {
				t.Fatalf("final sweep: key %d resolves to %v, model says %v", k, got, want)
			}
		}
	})
}
