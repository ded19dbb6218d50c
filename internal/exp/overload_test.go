package exp

import "testing"

// smokeE11 caches one smoke run per test binary.
var e11Smoke *E11Result

func smokeE11(t *testing.T) E11Result {
	t.Helper()
	if e11Smoke == nil {
		r := RunE11(SmokeOverloadConfig())
		e11Smoke = &r
	}
	return *e11Smoke
}

func TestE11DegradationHoldsCompletionRate(t *testing.T) {
	res := smokeE11(t)
	base := res.Baseline.CompleteRate()
	if base < 0.99 {
		t.Fatalf("unloaded baseline complete rate %.3f, want ~1", base)
	}
	var on, off *E11Cell
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Overcommit == 1.5 {
			if c.Degrade {
				on = c
			} else {
				off = c
			}
		}
	}
	if on == nil || off == nil {
		t.Fatal("missing 1.5x cells")
	}
	// The acceptance bar: degradation ON holds >= 90% of the unloaded
	// complete-frame rate at 1.5x overcommit, with zero I-frame loss and
	// zero indiscriminate tail drops.
	if rel := on.CompleteRate() / base; rel < 0.90 {
		t.Fatalf("ON complete rate %.3f of baseline, want >= 0.90", rel)
	}
	if on.ShedI != 0 {
		t.Fatalf("ON shed %d I frames, want 0", on.ShedI)
	}
	if on.TailDrops != 0 {
		t.Fatalf("ON tail-dropped %d packets, want 0 (frame-kind shed only)", on.TailDrops)
	}
	if on.FinalLevel != 0 {
		t.Fatalf("ON final level %d, want relaxed to 0 after the window", on.FinalLevel)
	}
	// OFF collapses: worse completion AND indiscriminate drops that maim
	// I frames.
	if off.CompleteRate() >= on.CompleteRate() {
		t.Fatalf("OFF complete %.3f >= ON %.3f; degradation buys nothing",
			off.CompleteRate(), on.CompleteRate())
	}
	if off.TailDrops == 0 {
		t.Fatal("OFF cell saw no tail drops; the overload ramp is too weak to mean anything")
	}
	if off.CompleteI >= on.CompleteI {
		t.Fatalf("OFF kept %d complete I frames vs ON %d; tail drops should maim I frames",
			off.CompleteI, on.CompleteI)
	}
	// The VOD variant: a throttleable source completes everything late.
	if res.VOD.CompleteRate() < 0.999 {
		t.Fatalf("VOD complete rate %.3f, want ~1 (backpressure stretches, never loses)", res.VOD.CompleteRate())
	}
	if res.VOD.TailDrops != 0 {
		t.Fatalf("VOD tail-dropped %d, want 0", res.VOD.TailDrops)
	}
	for _, c := range append(res.Cells, res.Baseline, res.VOD) {
		if len(c.Audit) != 0 {
			t.Fatalf("cell %+v audit violations: %v", c.Overcommit, c.Audit)
		}
	}
}

// TestE11RevocationDeterministic asserts the revocation scenario's outcome,
// which is the revocation half of the result's own Check: a grant revoked,
// the lowest-value path destroyed, the next degraded in place, audits clean.
func TestE11RevocationDeterministic(t *testing.T) {
	res := smokeE11(t)
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	broken := res
	broken.Revocation.Revoked = nil
	if broken.Check() == nil {
		t.Fatal("Check accepts a revocation scenario that revoked nothing")
	}
}
