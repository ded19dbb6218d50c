package core

import "fmt"

// Rule is a global transformation rule (§2.2, §3.3): a ⟨guard,
// transformation⟩ pair. After a path is established, the graph evaluates
// every rule's guard against the new path; whenever a guard holds, the
// transformation is applied and the process repeats until all guards are
// false. Transformations are semantically neutral — they typically swap
// interface function pointers for fused/specialized code (integrated layer
// processing) or adjust resource parameters.
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
			if p.applied[r.Name] || !r.Guard(p) {
				continue
			}
			if err := r.Transform(p); err != nil {
				return fmt.Errorf("core: transform %q: %w", r.Name, err)
			}
			p.applied[r.Name] = true
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
func (p *Path) Transformed(rule string) bool { return p.applied[rule] }

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
