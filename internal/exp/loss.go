package exp

import (
	"io"
	"time"

	"scout/internal/mpeg"
	"scout/internal/netdev"
	"scout/internal/proto/mflow"
	"scout/internal/routers"
)

// E9: decode quality under packet loss. The paper's experiments ran on a
// quiet Ethernet; this one injects deterministic loss into the link and
// measures what MFLOW retransmission buys. With retransmission the path
// degrades gracefully — every frame still arrives whole, at slightly lower
// rate; without it, each lost packet ruins a frame and the complete-frame
// rate collapses with the loss rate.

// LossRates are the injected loss probabilities of the E9 sweep.
var LossRates = []float64{0, 0.001, 0.01, 0.05}

// LossCell is one run of the E9 experiment: a clip streamed at maximum rate
// over a link with the given loss, with MFLOW retransmission on or off.
type LossCell struct {
	// FPS is the complete-frame decode rate: frames that arrived with no
	// packets missing, per second. Holed frames still display (a glitch),
	// so the displayed rate alone would hide the damage.
	FPS float64
	// Complete counts the frames that left the MPEG stage whole.
	Complete int64
	// Retransmits and RTOs are sender-side recovery counters.
	Retransmits int64
	RTOs        int64
	// Gaps counts sequence holes MFLOW passed up to the decoder.
	Gaps int64
	// NoPathDrops counts frames the classifier discarded for want of a path
	// (corrupted or stray traffic the driver used to drop silently).
	NoPathDrops int64
}

// LossRow pairs the retransmission-on and -off cells for one loss rate.
type LossRow struct {
	LossPct float64
	On, Off LossCell
}

// LossResult is the E9 sweep for one clip.
type LossResult struct {
	Clip string
	Rows []LossRow
}

// RunLoss sweeps the E9 grid for one clip.
func RunLoss(clip mpeg.ClipSpec) LossResult {
	res := LossResult{Clip: clip.Name}
	for _, rate := range LossRates {
		res.Rows = append(res.Rows, LossRow{
			LossPct: rate * 100,
			On:      LossMaxRate(clip, rate, true),
			Off:     LossMaxRate(clip, rate, false),
		})
	}
	return res
}

// LossMaxRate streams clip at maximum rate through the Scout appliance over
// a link with the given loss probability, returning the run's counters.
// retransmit selects reliable MFLOW on the path and a retransmitting source.
func LossMaxRate(clip mpeg.ClipSpec, loss float64, retransmit bool) LossCell {
	spec := worldSpec{seed: 2, maxRate: true, streams: []streamSpec{maxRateStream(clip, retransmit)}}
	if loss > 0 {
		spec.faults = &netdev.FaultPlan{Loss: loss}
	}
	w := newWorld(spec)
	s := w.streams[0]
	// Without retransmission lost frames never complete, so the run may end
	// on play's quiet period; don't bill that idle tail to the decode rate.
	// On a completed run the last change and the end time coincide anyway.
	end := w.play(5 * time.Minute)
	if s.lastChange > 0 {
		end = s.lastChange
	}

	cell := LossCell{Retransmits: s.src.Retransmits, RTOs: s.src.RTOs, NoPathDrops: w.k.Dev.NoPathDrops()}
	cell.Complete, _ = routers.MPEGComplete(s.p, "MPEG")
	if st, ok := mflow.StatsOf(s.p, "MFLOW"); ok {
		cell.Gaps = st.Gaps
	}
	cell.FPS = rate(cell.Complete, end)
	return cell
}

// Print renders the E9 sweep.
func (res LossResult) Print(w io.Writer) {
	fprintf(w, "E9: %s decode quality vs link loss (complete frames/sec, max-rate stream)\n", res.Clip)
	fprintf(w, "%7s | %10s %9s %7s %7s | %10s %9s %7s | %7s\n", "loss",
		"retx FPS", "complete", "retx", "RTOs", "noretx FPS", "complete", "gaps", "nopath")
	for _, r := range res.Rows {
		fprintf(w, "%6.2f%% | %10.1f %9d %7d %7d | %10.1f %9d %7d | %7d\n",
			r.LossPct, r.On.FPS, r.On.Complete, r.On.Retransmits, r.On.RTOs,
			r.Off.FPS, r.Off.Complete, r.Off.Gaps, r.On.NoPathDrops+r.Off.NoPathDrops)
	}
}
