package exp

import (
	"io"
	"time"

	"scout/internal/mpeg"
)

// Table1Row is one line of the paper's Table 1: the maximum decoding rate
// for a clip on Scout and on the monolithic baseline ("Linux" in the
// paper).
type Table1Row struct {
	Clip        string
	Frames      int
	ScoutFPS    float64
	BaselineFPS float64
}

// Table1 is the regenerated table.
type Table1 []Table1Row

// PaperTable1 records the published numbers for comparison.
var PaperTable1 = map[string][2]float64{
	"Flower":        {44.7, 37.1},
	"Neptune":       {49.9, 39.2},
	"RedsNightmare": {67.1, 55.5},
	"Canyon":        {245.9, 183.3},
}

// RunTable1 regenerates Table 1 over the paper's four clips (or a custom
// subset). Sources stream at maximum rate under MFLOW flow control; the
// decode CPU cost comes from the calibrated bits→CPU model; the baseline
// differs from Scout only in kernel structure (see package baseline).
func RunTable1(clips []mpeg.ClipSpec) Table1 {
	if clips == nil {
		clips = mpeg.Clips
	}
	rows := make(Table1, 0, len(clips))
	for _, c := range clips {
		rows = append(rows, Table1Row{
			Clip:        c.Name,
			Frames:      c.Frames,
			ScoutFPS:    ScoutMaxRate(c, false),
			BaselineFPS: BaselineMaxRate(c),
		})
	}
	return rows
}

// ScoutMaxRate plays a clip through the Scout appliance as fast as flow
// control and the CPU allow, returning the achieved decode+display frame
// rate. flooded adds Table 2's adaptive `ping -f` load.
func ScoutMaxRate(clip mpeg.ClipSpec, flooded bool) float64 { return maxRate(clip, flooded, false) }

// BaselineMaxRate is ScoutMaxRate on the monolithic stack.
func BaselineMaxRate(clip mpeg.ClipSpec) float64 { return maxRate(clip, false, true) }

func maxRate(clip mpeg.ClipSpec, flooded, monolithic bool) float64 {
	spec := worldSpec{seed: 1, maxRate: true, baseline: monolithic,
		streams: []streamSpec{maxRateStream(clip, false)}}
	if monolithic {
		spec.streams[0].source.SrcPort = 7100
	}
	if flooded {
		spec.flood = 1
	}
	w := newWorld(spec)
	end := w.play(10 * time.Minute)
	return rate(w.streams[0].sink.Displayed(), end)
}

// Print renders rows next to the paper's numbers.
func (rows Table1) Print(w io.Writer) {
	fprintf(w, "Table 1: Coarse-Grain Comparison of Scout and Linux (max decode rate, fps)\n")
	fprintf(w, "%-15s %7s | %12s %12s | %12s %12s\n", "Video", "#frames",
		"Scout(meas)", "Linux(meas)", "Scout(paper)", "Linux(paper)")
	for _, r := range rows {
		p := PaperTable1[r.Clip]
		fprintf(w, "%-15s %7d | %12.1f %12.1f | %12.1f %12.1f\n",
			r.Clip, r.Frames, r.ScoutFPS, r.BaselineFPS, p[0], p[1])
	}
}
