package exp

import "testing"

// TestExperimentsAreDeterministic is the in-process gate at tier-1: every
// registry entry, at CI size, is run twice from the same seed and must print
// the same bytes both times (E10: export the same trace and metrics too),
// pass its own Check, and match the committed golden digest. `mpegbench
// -gate -smoke` (make gates) is this loop behind a flag.
func TestExperimentsAreDeterministic(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			if _, err := e.Gate(true); err != nil {
				t.Error(err)
			}
		})
	}
	if len(GoldenDigests) != len(Experiments) {
		t.Errorf("golden.go has %d digests for %d experiments: remove the stale ones",
			len(GoldenDigests), len(Experiments))
	}
}

// TestDigestSeesSeed makes sure no digest is a constant: for every
// experiment whose configuration carries the world seed, a seed other than
// the golden run's moves the digest.
func TestDigestSeesSeed(t *testing.T) {
	reseeded := map[string]func(seed int64) Result{
		"e10":      func(s int64) Result { c := SmokeE10Config(); c.Seed = s; return RunE10(c) },
		"overload": func(s int64) Result { c := SmokeOverloadConfig(); c.Seed = s; return RunE11(c) },
		"e12":      func(s int64) Result { c := SmokeE12Config(); c.Seed = s; return RunE12(c) },
		"e13":      func(s int64) Result { c := SmokeE13Config(); c.Seed = s; return RunE13(c) },
		"e14":      func(s int64) Result { c := SmokeE14Config(); c.Seed = s; return RunE14(c) },
		"e15":      func(s int64) Result { c := SmokeE15Config(); c.Seed = s; return RunE15(c) },
	}
	for name, run := range reseeded {
		if got := Digest(run(2)); got == GoldenDigests[name] {
			t.Errorf("%s: digest 0x%016x unchanged by a different seed", name, got)
		}
	}
}
