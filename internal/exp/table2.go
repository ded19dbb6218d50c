package exp

import (
	"io"

	"scout/internal/mpeg"
)

// Table2Result is the paper's Table 2: the Neptune frame rate with and
// without a `ping -f` ICMP flood, on Scout and on the baseline. In the
// Scout case the video path runs at the default round-robin priority while
// the ICMP path runs one level lower; the baseline handles ICMP and video
// identically inside the kernel (§4.3). The flood is closed-loop like the
// real ping -f: it escalates only as fast as replies return.
type Table2Result struct {
	ScoutUnloaded, ScoutLoaded       float64
	BaselineUnloaded, BaselineLoaded float64
}

// PaperTable2 records the published numbers: Scout 49.9→49.8 (-0.2%),
// Linux 39.2→22.7 (-42.1%).
var PaperTable2 = struct {
	ScoutUnloaded, ScoutLoaded, LinuxUnloaded, LinuxLoaded float64
}{49.9, 49.8, 39.2, 22.7}

// RunTable2 regenerates Table 2 using the Neptune clip.
func RunTable2() Table2Result {
	return Table2Result{
		ScoutUnloaded:    ScoutMaxRate(mpeg.Neptune, false),
		ScoutLoaded:      ScoutMaxRate(mpeg.Neptune, true),
		BaselineUnloaded: BaselineMaxRate(mpeg.Neptune),
		BaselineLoaded:   maxRate(mpeg.Neptune, true, true),
	}
}

// Delta reports the loaded-vs-unloaded percentage changes.
func (r Table2Result) Delta() (scout, baseline float64) {
	return pct(r.ScoutLoaded, r.ScoutUnloaded), pct(r.BaselineLoaded, r.BaselineUnloaded)
}

func pct(loaded, unloaded float64) float64 {
	if unloaded == 0 {
		return 0
	}
	return (loaded - unloaded) / unloaded * 100
}

// Print renders the result next to the paper's numbers.
func (r Table2Result) Print(w io.Writer) {
	ds, db := r.Delta()
	fprintf(w, "Table 2: Neptune frame rate under ping -f ICMP flood\n")
	fprintf(w, "%-8s %10s %10s %8s | paper: %10s %10s %8s\n",
		"", "unloaded", "loaded", "Δ", "unloaded", "loaded", "Δ")
	fprintf(w, "%-8s %10.1f %10.1f %7.1f%% | %16.1f %10.1f %7.1f%%\n",
		"Scout", r.ScoutUnloaded, r.ScoutLoaded, ds,
		PaperTable2.ScoutUnloaded, PaperTable2.ScoutLoaded, -0.2)
	fprintf(w, "%-8s %10.1f %10.1f %7.1f%% | %16.1f %10.1f %7.1f%%\n",
		"Linux", r.BaselineUnloaded, r.BaselineLoaded, db,
		PaperTable2.LinuxUnloaded, PaperTable2.LinuxLoaded, -42.1)
}
