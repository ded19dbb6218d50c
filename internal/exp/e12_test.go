package exp

import (
	"bytes"
	"testing"
)

// TestE12Match is the receive-path equivalence gate: the kernel and the
// reference kernel must produce identical outputs from the same seed, while
// the kernel actually exercises the cache, fusion and burst classification
// and the reference exercises none of them.
func TestE12Match(t *testing.T) {
	res := RunE12(SmokeE12Config())
	if !res.Match() {
		var b bytes.Buffer
		res.Print(&b)
		t.Fatalf("outputs diverge from the reference kernel:\n%s", b.String())
	}
	if !res.Fast.Fused {
		t.Error("video path not fused")
	}
	if res.Ref.Fused {
		t.Error("reference kernel: video path fused")
	}
	if res.Fast.FlowHits == 0 {
		t.Error("flow cache never hit")
	}
	if res.Fast.FlowInvalidations == 0 {
		t.Error("mid-stream path churn caused no invalidations")
	}
	if res.Ref.FlowHits != 0 || res.Ref.FlowInserts != 0 {
		t.Errorf("reference kernel: flow cache active (hits=%d inserts=%d)",
			res.Ref.FlowHits, res.Ref.FlowInserts)
	}
	if res.Fast.Displayed == 0 {
		t.Error("no frames displayed: experiment degenerate")
	}
	if res.Fast.BurstFrames <= res.Fast.RxBursts {
		t.Errorf("no multi-frame bursts (%d entries, %d frames)",
			res.Fast.RxBursts, res.Fast.BurstFrames)
	}
	if res.Ref.RxBursts != res.Fast.RxBursts || res.Ref.BurstFrames != res.Fast.BurstFrames {
		t.Errorf("the two kernels saw different bursts: %d entries/%d frames vs reference %d/%d",
			res.Fast.RxBursts, res.Fast.BurstFrames, res.Ref.RxBursts, res.Ref.BurstFrames)
	}
	if res.Fast.BurstShared == 0 {
		t.Error("no frame ever shared an in-burst resolution")
	}
	if res.Ref.BurstShared != 0 {
		t.Error("reference kernel: in-burst sharing despite having no cache")
	}
}
