package exp

import "testing"

// E13 acceptance: with one subpath degraded to 5% bursty loss mid-run, the
// loss-aware policy must hold near the unloaded reference rate (it re-pins
// its flows onto clean wires once), while flows pinned to the degraded link
// collapse relative to their clean-link peers.
func TestE13LossAwareHoldsRateUnderDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("multipath grid cell is slow")
	}
	cfg := SmokeE13Config()
	cfg = cfg.withDefaults()
	cfg.Ks = []int{2}

	base := runE13Cell(cfg, 2, "loss-aware-ewma", false)
	aware := runE13Cell(cfg, 2, "loss-aware-ewma", true)
	pinned := runE13Cell(cfg, 2, "pinned", true)

	if base.CompleteFrac < 0.999 {
		t.Fatalf("unloaded baseline incomplete: %.1f%% frames complete", base.CompleteFrac*100)
	}
	// Loss-aware under the fault keeps >= 95% of the unloaded complete-frame
	// rate: the acceptance bar from the issue.
	if aware.MeanRate < 0.95*base.MeanRate {
		t.Fatalf("loss-aware-ewma degraded too far: %.2f f/s vs unloaded %.2f f/s",
			aware.MeanRate, base.MeanRate)
	}
	if aware.Repins < 1 {
		t.Fatalf("loss-aware-ewma never re-pinned off the degraded link")
	}
	// Pinned flows on the degraded link have no escape hatch; their rate must
	// collapse well below both their clean-link peers and the loss-aware runs.
	if pinned.DegradedRate >= 0.75*pinned.CleanRate {
		t.Fatalf("pinned flows on the degraded link did not collapse: deg %.2f vs clean %.2f f/s",
			pinned.DegradedRate, pinned.CleanRate)
	}
	if pinned.Repins != 0 {
		t.Fatalf("pinned policy re-pinned %d times", pinned.Repins)
	}
}
