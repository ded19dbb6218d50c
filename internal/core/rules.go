package core

import (
	"fmt"
	"slices"
)

// Rule is a global transformation rule (§2.2, §3.3): a ⟨guard,
// transformation⟩ pair. After a path is established, the graph evaluates
// every rule's guard against the new path; whenever a guard holds, the
// transformation is applied and the process repeats until all guards are
// false. Transformations are semantically neutral — they typically swap
// interface function pointers for fused/specialized code (integrated layer
// processing) or adjust resource parameters. A transformation that rewrites
// stages does so through Path.Interpose, so a resplice re-applies it.
type Rule struct {
	// Name identifies the rule; a rule is applied at most once per path,
	// which is how well-behaved transformations make their guard false.
	Name string
	// Guard decides whether the transformation applies to p.
	Guard func(p *Path) bool
	// Transform rewrites the path. An error aborts path creation.
	Transform func(p *Path) error
}

// AddRule registers a transformation rule; rules are selected at
// configuration time, before Build.
func (g *Graph) AddRule(r Rule) {
	if r.Name == "" || r.Guard == nil || r.Transform == nil {
		panic("core: rule needs name, guard and transform")
	}
	g.rules = append(g.rules, r)
	// A new rule can change what future classifications should produce (a
	// transformation may rewire interfaces); flush any cached decisions.
	g.InvalidateFlows()
}

// applyRules runs creation phase 4 on p.
func (g *Graph) applyRules(p *Path) error {
	const maxRounds = 100
	for round := 0; ; round++ {
		fired := false
		for _, r := range g.rules {
			if p.Transformed(r.Name) || !r.Guard(p) {
				continue
			}
			if err := r.Transform(p); err != nil {
				return fmt.Errorf("core: transform %q: %w", r.Name, err)
			}
			if p.ext == nil {
				p.ext = &pathExt{}
			}
			p.ext.applied = append(p.ext.applied, r.Name)
			fired = true
		}
		if !fired {
			return nil
		}
		if round >= maxRounds {
			return fmt.Errorf("core: transformation rules did not converge after %d rounds", maxRounds)
		}
	}
}

// Transformed reports whether the named rule was applied to p.
func (p *Path) Transformed(rule string) bool {
	return p.ext != nil && slices.Contains(p.ext.applied, rule)
}

// pathExt is what only some paths carry, behind one pointer allocated on
// first use: the rules applied to them and their interposers.
type pathExt struct {
	applied     []string
	interposers []func(i int, s *Stage)
}

// Interpose is the one way to rewrite a path's stages from outside their
// routers (§3.3's function-pointer swap), for rules, tracing and faults
// alike. fn runs at once on every stage in stage order, and again on each
// stage a later Resplice rebuilds, once it is wired, established and fused.
// Interposers run in registration order; a retained stage is never hooked
// twice.
func (p *Path) Interpose(fn func(i int, s *Stage)) {
	if p.ext == nil {
		p.ext = &pathExt{}
	}
	p.ext.interposers = append(p.ext.interposers, fn)
	for i, s := range p.stages {
		fn(i, s)
	}
}

// HasSequence reports whether the path's stages contain the given router
// names consecutively in creation order — the typical guard condition
// ("MPEG directly on top of UDP", §4.1).
func (p *Path) HasSequence(names ...string) bool {
	if len(names) == 0 {
		return true
	}
outer:
	for i := 0; i+len(names) <= len(p.stages); i++ {
		for j, n := range names {
			if p.stages[i+j].Router.Name != n {
				continue outer
			}
		}
		return true
	}
	return false
}
