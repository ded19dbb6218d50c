// Wall-clock microbenchmarks: the §3.6 path-creation and demux measurements
// (E1, E2), the buffer-management ablation and the real codec. The
// virtual-time experiments (tables, EDF, admission, queue sizing, ILP,
// deadline choice) are reports of internal/exp's registry: `make gates` pins
// them by digest and `go run ./cmd/mpegbench -run <name>` prints them.
//
// Run: go test -run '^$' -bench . -benchmem
package scout_test

import (
	"testing"
	"time"

	"scout/internal/admission"
	"scout/internal/exp"
	"scout/internal/fbuf"
	"scout/internal/mpeg"
	"scout/internal/msg"
	"scout/internal/proto/eth"
)

// --- E1: §3.6 path creation (paper: ≈200µs on a 300MHz Alpha) ---

func BenchmarkE1_PathCreate(b *testing.B) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		b.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(10000+i%20000))
		if err != nil {
			b.Fatal(err)
		}
		p.Delete()
	}
}

// --- E2: §3.6 packet classification (paper: < 5µs per UDP packet) ---

func BenchmarkE2_Demux(b *testing.B) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		b.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	if _, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300)); err != nil {
		b.Fatal(err)
	}
	m := exp.BuildVideoFrame(k, 9300, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.ETH.Classify(m); err != nil {
			b.Fatal(err)
		}
	}
}

// The device-edge flow cache makes BenchmarkE2_Demux a cache-hit
// measurement (Classify consults the cache first); this is the companion
// cold-miss cost — the full hop-by-hop walk the cache short-circuits.
// `go run ./bench` records both as eth.classify_hit_ns and
// eth.classify_walk_ns.
func BenchmarkE2_Demux_ColdMiss(b *testing.B) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		b.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	if _, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300)); err != nil {
		b.Fatal(err)
	}
	m := exp.BuildVideoFrame(k, 9300, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.ETH.ClassifyUncached(m); err != nil {
			b.Fatal(err)
		}
	}
}

// The burst companion: amortized per-packet classification cost when the
// device hands the classifier a whole same-flow burst and the in-burst memo
// short-circuits even the flow-cache lookup for frames 2..N. The burst
// itself is built once through the burst allocation path (fbuf.GetBurst over
// a msg.Arena). Reported as wall-ns/pkt (amortized; the ladder's
// eth.classify_burst_ns_per_pkt) and pkts/s alongside the per-op ns, which
// covers the whole 64-frame burst.
func BenchmarkE2_Demux_Burst(b *testing.B) {
	k, err := exp.NewMicroKernel()
	if err != nil {
		b.Fatal(err)
	}
	testR, _ := k.Graph.Router("TEST")
	if _, err := k.Graph.CreatePath(testR, exp.TestPathAttrs(9300)); err != nil {
		b.Fatal(err)
	}
	template := exp.BuildVideoFrame(k, 9300, 1024)
	const burstLen = 64
	pool := fbuf.NewPool(template.Len(), 0, burstLen, burstLen)
	var arena msg.Arena
	burst, err := pool.GetBurst(&arena, make([]*msg.Msg, 0, burstLen), burstLen, template.Len())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range burst {
		copy(m.Bytes(), template.Bytes())
	}
	cls := make([]eth.BurstClass, 0, burstLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls = k.ETH.ClassifyBurst(burst, cls[:0])
		if cls[0].Err != nil {
			b.Fatal(cls[0].Err)
		}
	}
	b.StopTimer()
	pkts := float64(b.N) * burstLen
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "wall-ns/pkt")
	b.ReportMetric(pkts/b.Elapsed().Seconds(), "pkts/s")
}

// --- Ablations (DESIGN.md) ---

// fbuf pools vs per-hop copies: the data-path buffer management choice.
func BenchmarkAblation_Fbuf(b *testing.B) {
	pool := fbuf.NewPool(1500, 64, 8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := pool.Get(1400)
		if err != nil {
			b.Fatal(err)
		}
		m.Push(42)
		m.Pop(42)
		m.Free()
	}
}

func BenchmarkAblation_PerHopCopy(b *testing.B) {
	src := make([]byte, 1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := msg.NewWithHeadroom(64, 1400)
		if err := m.CopyIn(src); err != nil {
			b.Fatal(err)
		}
		out := m.CopyOut() // the per-layer copy Scout's paths avoid
		_ = out
		m.Free()
	}
}

// --- Codec substrate: real decode/dither throughput on this machine ---

func BenchmarkCodec_RealDecode(b *testing.B) {
	scene := mpeg.NewScene(mpeg.SceneConfig{W: 160, H: 112, Detail: 0.5, Motion: 1, Objects: 2, Seed: 10})
	enc, _ := mpeg.NewEncoder(mpeg.EncoderConfig{W: 160, H: 112, GOP: 15, QScale: 3, SearchRange: 4})
	var pkts [][]byte
	frames := 15
	for i := 0; i < frames; i++ {
		ps, _ := enc.Encode(scene.Frame(i))
		for _, p := range ps {
			pkts = append(pkts, p.Marshal())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := mpeg.NewDecoder()
		for _, pk := range pkts {
			if _, err := dec.DecodePacket(pk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*frames)/b.Elapsed().Seconds(), "frames/s")
}

// §4.4's empirical claim on the REAL codec: wall-clock decode time
// correlates with encoded frame size. (The virtual-time experiments charge
// a linear model by construction; this measures the actual decoder.)
func BenchmarkCodec_BitsCPUCorrelation(b *testing.B) {
	// Frames of widely varying complexity → widely varying sizes.
	var pkts [][]*mpeg.Packet
	var sizes []float64
	for _, detail := range []float64{0.05, 0.2, 0.4, 0.6, 0.8, 1.0} {
		scene := mpeg.NewScene(mpeg.SceneConfig{W: 160, H: 112, Detail: detail, Motion: 1, Objects: 2, Seed: 3})
		enc, _ := mpeg.NewEncoder(mpeg.EncoderConfig{W: 160, H: 112, GOP: 1, QScale: 2})
		ps, _ := enc.Encode(scene.Frame(0))
		bits := 0
		for _, p := range ps {
			bits += len(p.Data) * 8
		}
		pkts = append(pkts, ps)
		sizes = append(sizes, float64(bits))
	}
	var model admission.Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, ps := range pkts {
			// Decode each frame many times per observation so the
			// measurement dominates scheduler noise.
			const reps = 20
			start := time.Now()
			for r := 0; r < reps; r++ {
				dec := mpeg.NewDecoder()
				for _, p := range ps {
					if _, err := dec.Decode(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			model.Observe(sizes[j], time.Since(start)/reps)
		}
	}
	b.ReportMetric(model.R2(), "R2")
	b.ReportMetric(model.Slope(), "ns-per-bit")
}
