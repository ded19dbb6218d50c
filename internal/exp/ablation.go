package exp

import (
	"io"
	"time"

	"scout/internal/appliance"
	"scout/internal/core"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/routers"
)

// Ablations for the design choices DESIGN.md calls out.

// ILPResult is the §4.1 ablation: the average path CPU per packet without
// and with the integrated-layer-processing transformation rule.
type ILPResult struct{ Off, On time.Duration }

// RunILP streams a short Neptune prefix with or without the
// integrated-layer-processing transformation rule (§4.1: fuse the UDP
// checksum into MPEG's read of the data) and returns the average path CPU
// per packet.
func RunILP(enable bool, frames int) time.Duration {
	clip := mpeg.Neptune
	clip.Frames = frames
	w := newWorld(worldSpec{
		seed: 4, maxRate: true,
		tune: func(c *appliance.Config) { c.EnableILP = enable },
		streams: []streamSpec{{
			attrs:  appliance.VideoAttrs{FPS: 2000, CostModel: true, QueueLen: 32},
			source: host.SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, MaxRate: true, Seed: 13},
		}},
	})
	s := w.streams[0]
	runUntil(w.eng, 5*time.Minute, func() bool { return s.sent() && s.p.Q[core.QOutFWD].Empty() })
	w.eng.RunFor(time.Second)
	packets, _, _, _ := routers.MPEGStats(s.p, "MPEG")
	if packets == 0 {
		return 0
	}
	return s.p.CPUTime() / time.Duration(packets)
}

// Print renders the ablation.
func (r ILPResult) Print(w io.Writer) {
	fprintf(w, "§4.1 ILP transformation (UDP checksum fused into MPEG read):\n")
	fprintf(w, "per-packet path CPU: %v without, %v with → %v saved\n", r.Off, r.On, r.Off-r.On)
}

// RunDeadlineMode plays the §4.3 workload with the EDF deadline computed from
// the given bottleneck queue selection ("out", "in" or "min") and reports the
// misses under contention — the ablation of the paper's claim that driving
// scheduling off the bottleneck queue is what matters.
func RunDeadlineMode(mode string, neptuneFrames, canyonFrames int) EDFRow {
	return deadlineContenders.play("edf/"+mode,
		EDFConfig{NeptuneFrames: neptuneFrames, CanyonFrames: canyonFrames, Canyons: 8},
		appliance.VideoAttrs{QueueLen: 128, Sched: "edf", DeadlineFrom: mode})
}
