package exp

import (
	"bytes"
	"io"
	"testing"
)

// tinyE10 keeps tier-1 runtime small while still crossing every
// instrumentation point (wire, queues, all six stages, exec spans, flood
// interrupts).
func tinyE10() E10Config {
	return E10Config{Frames: 60, Loads: []int{0, 2}}
}

func TestE10SmokeBreakdownShape(t *testing.T) {
	res := RunE10(tinyE10())
	rows := res.Rows
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	unloaded, loaded := rows[0], rows[1]
	for _, r := range rows {
		if r.FPS <= 0 {
			t.Fatalf("load=%d: fps=%v, want > 0", r.Load, r.FPS)
		}
		pm := r.Path
		if pm.PID == 0 {
			t.Fatalf("load=%d: video path missing from metrics", r.Load)
		}
		wantStages := map[string]bool{"ETH": false, "IP": false, "UDP": false, "MFLOW": false, "MPEG": false, "DISPLAY": false}
		for _, sm := range pm.Stages {
			if _, ok := wantStages[sm.Stage]; ok && sm.Execs > 0 {
				wantStages[sm.Stage] = true
			}
		}
		for name, seen := range wantStages {
			if !seen {
				t.Errorf("load=%d: stage %s recorded no executions", r.Load, name)
			}
		}
		if in := queueSummary(pm, "in[BWD]"); in.Wait.Count == 0 {
			t.Errorf("load=%d: input queue recorded no waits", r.Load)
		}
		if out := queueSummary(pm, "out[BWD]"); out.Dequeued == 0 {
			t.Errorf("load=%d: output queue never drained (no frames displayed?)", r.Load)
		}
		if pm.Wire.Frames == 0 {
			t.Errorf("load=%d: no wire spans recorded", r.Load)
		}
		if pm.Exec.Execs == 0 {
			t.Errorf("load=%d: no exec spans recorded", r.Load)
		}
		if pm.Exec.ActualNs < pm.Exec.ChargedNs {
			t.Errorf("load=%d: actual %d < charged %d", r.Load, pm.Exec.ActualNs, pm.Exec.ChargedNs)
		}
	}
	// The flood's receive interrupts steal CPU from the video thread; that
	// steal is exactly what the breakdown is for.
	if loaded.Path.Exec.StolenNs <= unloaded.Path.Exec.StolenNs {
		t.Errorf("flood did not increase irq steal: unloaded=%dns loaded=%dns",
			unloaded.Path.Exec.StolenNs, loaded.Path.Exec.StolenNs)
	}
	// The exports the gate digests must be real documents, not empty ones.
	for what, write := range map[string]func(io.Writer) error{
		"trace": res.Tracer().WriteTrace, "metrics": res.Tracer().WriteMetricsJSON,
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		if b.Len() < 100 {
			t.Errorf("%s export suspiciously small (%d bytes)", what, b.Len())
		}
	}
}
