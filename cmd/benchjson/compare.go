package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// nsRatioCeil is the default allowed ns/op growth between base and new.
// Wall-clock microbenchmarks jitter; 20% headroom keeps the gate about
// regressions, not noise.
const nsRatioCeil = 1.2

// nsCeilOverrides tightens (or loosens) the ns/op ceiling per benchmark.
// The ILP ablations are whole-simulation runs whose wall time is
// GC-dominated (tens of thousands of allocs per op) and swings ±25% with
// machine load; their deterministic virtual-time result (ns-per-packet) is
// compared exactly instead, so the wall ceiling only has to catch
// order-of-magnitude rot. (Until the baseline moved from pr3 to pr5,
// E2_Demux carried a 0.34 ceiling here — the flow cache's ≥3× win over the
// pr3 walk. Both documents now have the cache, so that claim is enforced by
// the within-document hit/walk separation check below instead.)
// Scoutlint's input is this repository's own source, so its wall time grows
// linearly with every PR; the 2× ceiling only has to catch superlinear
// (algorithmic) blowups in the analyses.
// PerHopCopy is three fresh kilobyte buffers per op and nothing else: it
// times the host's allocator and GC, and the same binary read 1.3–2.1 µs
// within minutes on the host that recorded 1.03 µs for pr10. Its allocs/op
// and B/op are exact and gated; the wall ceiling is for rot only.
var nsCeilOverrides = map[string]float64{
	"BenchmarkAblation_ILP_On":     1.5,
	"BenchmarkAblation_ILP_Off":    1.5,
	"BenchmarkAblation_PerHopCopy": 2.5,
	"BenchmarkScoutlint":           2.0,
}

// allocsSlack is the allowed relative allocs/op growth. A zero-alloc
// baseline stays strict (0.1% of 0 is 0), so the data-path invariant cannot
// rot. Whole-simulation benchmarks, though, make 10^5–10^6 allocations whose
// exact count jitters by a handful run to run — sync.Pool victim caches
// refill with real allocations, and when the GC clears them depends on wall
// time. 0.1% absorbs that jitter while still catching any per-packet or
// per-frame allocation leak, which shows up at percent scale.
const allocsSlack = 1.001

// allocsExempt lists benchmarks whose allocation count measures the repo
// itself rather than the code under test. Scoutlint parses and analyses this
// repository's source, so every PR grows its input and its allocs/op rises
// by design; only its wall time is gated.
var allocsExempt = map[string]bool{
	"BenchmarkScoutlint": true,
}

// exactUnits are custom benchmark metrics computed on the virtual clock:
// deterministic by construction, so any drift between base and new is a
// real behaviour change, not noise.
var exactUnits = []string{"ns-per-packet", "neptune-missed"}

// fpsRatioFloor is the allowed fps shrinkage: virtual frame rates are
// deterministic, so this is effectively "no regression" with float slack.
const fpsRatioFloor = 0.999

// wallRateFloor is the allowed shrinkage for wall-clock throughput metrics
// ("/s" units such as pkts/s). Unlike fps these are real measurements, so
// the floor mirrors the 20% ns/op jitter headroom; like ns/op they are only
// compared when both documents come from the same CPU.
const wallRateFloor = 1 / nsRatioCeil

// burstAmortizedCeil is the absolute amortized classification budget in the
// new document: BenchmarkE2_Demux_Burst must come in under this many
// wall-clock nanoseconds per packet (the burst fast-path headline). Checked
// within one document, so it is same-machine by construction.
const burstAmortizedCeil = 20.0

// demuxSeparation is the required within-document cold-miss/hit ratio: the
// walk must cost at least this multiple of a cache hit. The pr3→pr5 ≥3×
// headline is enforced against the pr3 baseline by the E2_Demux ceiling
// override above; this in-run bound is deliberately lower because the
// reference walk itself got ~19× faster in pr5 (flat metadata, scratch
// parsing), leaving ≈2× between a hit and the already-cheap walk.
const demuxSeparation = 1.5

func loadDoc(path string) (doc, error) {
	var d doc
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	err = json.Unmarshal(b, &d)
	return d, err
}

// compare diffs base and new benchmark documents and returns the process
// exit code: 0 when every threshold holds, 1 otherwise.
func compare(w io.Writer, basePath, newPath string) int {
	base, err := loadDoc(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	cand, err := loadDoc(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}

	byName := make(map[string]benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	sameCPU := base.CPU != "" && base.CPU == cand.CPU
	if !sameCPU {
		fmt.Fprintf(w, "benchjson: CPUs differ (%q vs %q): ns/op not compared\n", base.CPU, cand.CPU)
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}
	checked := 0

	names := make([]string, 0, len(cand.Benchmarks))
	candByName := make(map[string]benchmark, len(cand.Benchmarks))
	for _, b := range cand.Benchmarks {
		names = append(names, b.Name)
		candByName[b.Name] = b
	}
	sort.Strings(names)

	for _, name := range names {
		nb := candByName[name]
		bb, inBase := byName[name]
		if !inBase {
			fmt.Fprintf(w, "new  %s (no baseline)\n", name)
			continue
		}
		if na, ok := nb.Metrics["allocs/op"]; ok && !allocsExempt[name] {
			if ba, have := bb.Metrics["allocs/op"]; have {
				checked++
				if na > ba*allocsSlack {
					fail("%s allocs/op %.0f -> %.0f (must not grow)", name, ba, na)
				}
			}
		}
		if sameCPU {
			if nn, ok := nb.Metrics["ns/op"]; ok {
				if bn, have := bb.Metrics["ns/op"]; have && bn > 0 {
					checked++
					ceil := nsRatioCeil
					if o, has := nsCeilOverrides[name]; has {
						ceil = o
					}
					if r := nn / bn; r > ceil {
						fail("%s ns/op %.0f -> %.0f (ratio %.2f > %.2f)", name, bn, nn, r, ceil)
					} else {
						fmt.Fprintf(w, "ok   %s ns/op %.0f -> %.0f (ratio %.2f <= %.2f)\n", name, bn, nn, r, ceil)
					}
				}
			}
		}
		if nf, ok := nb.Metrics["fps"]; ok {
			if bf, have := bb.Metrics["fps"]; have && bf > 0 {
				checked++
				if r := nf / bf; r < fpsRatioFloor {
					fail("%s fps %.2f -> %.2f (ratio %.4f < %.4f)", name, bf, nf, r, fpsRatioFloor)
				}
			}
		}
		if sameCPU {
			units := make([]string, 0, len(nb.Metrics))
			for unit := range nb.Metrics {
				units = append(units, unit)
			}
			sort.Strings(units)
			for _, unit := range units {
				if !strings.HasSuffix(unit, "/s") {
					continue
				}
				nv := nb.Metrics[unit]
				if bv, have := bb.Metrics[unit]; have && bv > 0 {
					checked++
					if r := nv / bv; r < wallRateFloor {
						fail("%s %s %.0f -> %.0f (ratio %.2f < %.2f)", name, unit, bv, nv, r, wallRateFloor)
					} else {
						fmt.Fprintf(w, "ok   %s %s %.0f -> %.0f (ratio %.2f >= %.2f)\n", name, unit, bv, nv, r, wallRateFloor)
					}
				}
			}
		}
		for _, unit := range exactUnits {
			if nv, ok := nb.Metrics[unit]; ok {
				if bv, have := bb.Metrics[unit]; have {
					checked++
					if nv != bv {
						fail("%s %s %v -> %v (virtual-time metric must not drift)", name, unit, bv, nv)
					}
				}
			}
		}
	}
	baseNames := make([]string, 0, len(byName))
	for name := range byName {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)
	for _, name := range baseNames {
		if _, still := candByName[name]; !still {
			fail("%s present in base but missing from new (coverage lost)", name)
		}
	}

	// The flow cache's hit/walk separation, measured within the new document
	// so the comparison is same-machine, same-run.
	hit, haveHit := candByName["BenchmarkE2_Demux"]
	walk, haveWalk := candByName["BenchmarkE2_Demux_ColdMiss"]
	switch {
	case !haveHit || !haveWalk:
		fail("new document lacks BenchmarkE2_Demux / BenchmarkE2_Demux_ColdMiss pair")
	default:
		h, w1 := hit.Metrics["ns/op"], walk.Metrics["ns/op"]
		checked++
		if h <= 0 || w1/h < demuxSeparation {
			fail("flow cache separation: hit %.0f ns/op vs walk %.0f ns/op (%.2fx < %.1fx)",
				h, w1, w1/h, demuxSeparation)
		} else {
			fmt.Fprintf(w, "ok   flow cache separation: hit %.0f ns/op vs walk %.0f ns/op (%.2fx >= %.1fx)\n",
				h, w1, w1/h, demuxSeparation)
		}
	}

	// The burst classifier's absolute amortized budget, measured within the
	// new document.
	if burst, have := candByName["BenchmarkE2_Demux_Burst"]; have {
		if v, ok := burst.Metrics["wall-ns/pkt"]; ok {
			checked++
			if v >= burstAmortizedCeil {
				fail("burst amortized classification %.2f wall-ns/pkt (>= %.0f budget)", v, burstAmortizedCeil)
			} else {
				fmt.Fprintf(w, "ok   burst amortized classification %.2f wall-ns/pkt (< %.0f budget)\n", v, burstAmortizedCeil)
			}
		} else {
			fail("BenchmarkE2_Demux_Burst lacks the wall-ns/pkt metric")
		}
	} else {
		fail("new document lacks BenchmarkE2_Demux_Burst")
	}

	if failures > 0 {
		fmt.Fprintf(w, "benchjson: %d comparison(s), %d FAILED\n", checked, failures)
		return 1
	}
	fmt.Fprintf(w, "benchjson: %d comparison(s), all within thresholds\n", checked)
	return 0
}
