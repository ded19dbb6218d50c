package exp

import (
	"io"
	"time"

	"scout/internal/admission"
	"scout/internal/appliance"
	"scout/internal/core"
	"scout/internal/display"
	"scout/internal/host"
	"scout/internal/mpeg"
	"scout/internal/routers"
)

// AdmissionResult is the §4.4 experiment: (a) fit the bits→CPU model from
// live path execution measurements and report its quality; (b) display
// every third frame and measure how much CPU early packet discard saves
// over decoding everything.
type AdmissionResult struct {
	Samples     int
	R2          float64
	SlopeNsBit  float64
	InterceptUs float64

	FullCPU      time.Duration // decode every frame
	DecimatedCPU time.Duration // early-drop 2 of 3 frames at the adapter
	EarlyDrops   int64
	SavedFrac    float64
}

// RunAdmission runs both halves on a Neptune prefix.
func RunAdmission(frames int) AdmissionResult {
	if frames == 0 {
		frames = 400
	}
	var res AdmissionResult

	// (a) Correlation: observe per-frame (bits, cpu) from the running
	// path, exactly as the paper proposes deriving the model parameters.
	model := &admission.Model{}
	res.FullCPU, _ = playNeptune(frames, 1, model)
	res.Samples = model.N()
	res.R2 = model.R2()
	res.SlopeNsBit = model.Slope()
	res.InterceptUs = model.Intercept() / 1000

	// (b) Early discard of skipped frames.
	res.DecimatedCPU, res.EarlyDrops = playNeptune(frames, 3, nil)
	if res.FullCPU > 0 {
		res.SavedFrac = 1 - float64(res.DecimatedCPU)/float64(res.FullCPU)
	}
	return res
}

// playNeptune plays the prefix paced at its native rate, displaying every
// decimate-th frame, and returns the path's CPU time and early discards.
func playNeptune(frames, decimate int, model *admission.Model) (cpu time.Duration, earlyDrops int64) {
	clip := mpeg.Neptune
	clip.Frames = frames
	w := newWorld(worldSpec{seed: 9, streams: []streamSpec{{
		attrs: appliance.VideoAttrs{
			FPS: clip.FPS / decimate, Frames: frames / decimate, CostModel: true, QueueLen: 32,
		},
		source: host.SourceConfig{Clip: clip, SrcPort: 7000, CostOnly: true, Seed: 17},
	}}})
	s := w.streams[0]
	if model != nil {
		w.k.Display.OnFrameDone = func(p *core.Path, f *display.Frame, cpu time.Duration) {
			model.Observe(float64(f.Bits), cpu)
		}
	}
	if decimate > 1 {
		// Install the early-discard filter the MPEG stage would install
		// from PA_DECIMATE (set here post-creation to reuse one path
		// creation flow for both runs).
		s.p.EarlyDiscard = routers.DecimationFilter(decimate)
	}
	// Let the pipeline drain once the source is done.
	runUntil(w.eng, 10*time.Minute, func() bool { return s.sent() && s.p.Q[core.QInBWD].Empty() })
	w.eng.RunFor(500 * time.Millisecond)
	return s.p.CPUTime(), s.p.EarlyDiscards
}

// Print renders the result.
func (r AdmissionResult) Print(w io.Writer) {
	fprintf(w, "§4.4: admission control\n")
	fprintf(w, "bits→CPU model over %d frames: cpu ≈ %.1fµs + %.0f ns/bit, R² = %.3f\n",
		r.Samples, r.InterceptUs, r.SlopeNsBit, r.R2)
	fprintf(w, "(paper: 'good correlation between average frame size and decode CPU')\n")
	fprintf(w, "early drop of skipped frames (display every 3rd):\n")
	fprintf(w, "  full decode CPU %v, with early drop %v → %.0f%% saved (%d packets dropped at adapter)\n",
		r.FullCPU, r.DecimatedCPU, r.SavedFrac*100, r.EarlyDrops)
}
