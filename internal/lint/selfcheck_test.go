package lint

import (
	"slices"
	"testing"
)

// TestScoutlintSelfCheck runs the full analyzer suite against this module's
// real source and requires zero findings: an exception to an invariant is a
// //scout: marker in the code, never a suppression file. It is part of
// tier-1 (`go test ./...`), so an invariant regression fails the ordinary
// test run, not just CI's scoutlint step.
func TestScoutlintSelfCheck(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range mod.Pkgs {
		for _, terr := range pkg.TypeErrs {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
	}
	for _, d := range RunModule(mod, All()) {
		t.Errorf("scoutlint: %s", d)
	}
	if len(mod.Pkgs) < 30 {
		t.Errorf("loader found only %d packages; module discovery looks broken", len(mod.Pkgs))
	}
	// One analyzer per invariant: a Graph() panic or an accidental drop from
	// All() would otherwise silently skip a rule.
	want := []string{
		"simclock", "attrkey", "nopanic", "locksafe", "errcheck",
		"flowguard", "detlint", "shardguard", "goguard",
	}
	var got []string
	for _, a := range All() {
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("All() = %v, want %v", got, want)
	}
	if g := mod.Graph(); len(g.Nodes) < 100 {
		t.Errorf("data-path call graph looks empty: %d nodes over the whole module", len(g.Nodes))
	}
}
