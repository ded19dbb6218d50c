package exp

import (
	"testing"

	"scout/internal/mpeg"
)

// E9 shape: with retransmission the decode rate degrades gracefully with
// link loss; without it the complete-frame rate collapses. As everywhere in
// this file, assert the shape, not absolute numbers.
func TestLossRetransmissionDegradesGracefully(t *testing.T) {
	clip, _ := mpeg.ClipByName("Neptune")
	rows := RunLoss(clip).Rows
	if len(rows) != len(LossRates) {
		t.Fatalf("got %d rows", len(rows))
	}
	total := int64(clip.Frames)
	unloaded := rows[0].On

	// A quiet link: the retransmission machinery must be pure overhead-free
	// bystander — same rate as the unreliable path, no spurious recovery.
	if rows[0].On.FPS != rows[0].Off.FPS {
		t.Errorf("0%% loss: retransmit on %.2f fps != off %.2f", rows[0].On.FPS, rows[0].Off.FPS)
	}
	if rows[0].On.Retransmits != 0 || rows[0].On.RTOs != 0 || rows[0].On.Gaps != 0 {
		t.Errorf("0%% loss: spurious recovery %+v", rows[0].On)
	}

	for _, r := range rows[1:] {
		// Retransmission must win at every loss rate, in both rate and
		// completeness, and must actually be doing work.
		if r.On.FPS <= r.Off.FPS {
			t.Errorf("%.2f%% loss: retransmit on %.2f fps <= off %.2f", r.LossPct, r.On.FPS, r.Off.FPS)
		}
		if r.On.Complete <= r.Off.Complete {
			t.Errorf("%.2f%% loss: retransmit on completed %d <= off %d", r.LossPct, r.On.Complete, r.Off.Complete)
		}
		if r.On.Retransmits == 0 {
			t.Errorf("%.2f%% loss: no retransmissions recorded", r.LossPct)
		}
		if r.Off.Gaps == 0 {
			t.Errorf("%.2f%% loss: unreliable path saw no gaps", r.LossPct)
		}
	}

	// The acceptance bar: at 1% loss a retransmitting path holds ≥95% of
	// its unloaded decode rate and still completes every frame.
	onePct := rows[2]
	if onePct.On.FPS < 0.95*unloaded.FPS {
		t.Errorf("1%% loss: %.2f fps < 95%% of unloaded %.2f", onePct.On.FPS, unloaded.FPS)
	}
	if onePct.On.Complete != total || onePct.On.Gaps != 0 {
		t.Errorf("1%% loss: retransmission left damage: %+v", onePct.On)
	}

	// Without retransmission 5% loss ruins a large share of the frames.
	if rows[3].Off.Complete >= total*8/10 {
		t.Errorf("5%% loss: unreliable path still completed %d/%d frames", rows[3].Off.Complete, total)
	}
}
