// Command bench is the repository's end-to-end benchmark: six fixed-work
// workloads over the Scout data path, each checked for correct outputs, with
// a per-layer cost ledger (public counters, wall-clock spans recorded from
// outside the layers, and a ladder of direct calls) beside the end-to-end
// numbers. README.md in this directory explains every metric.
//
//	go run ./bench                      every workload, both passes
//	go run ./bench -sets 2              twice, and compare the spread with the bounds
//	go run ./bench --workload rx_hot --seed 1 --seconds 12 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 12

// hostInfo fingerprints the machine and build a result came from; wall-clock
// numbers from different fingerprints do not compare.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed    = flag.Int64("seed", 1, "seed for engines, clip traces and fault streams")
		seconds = flag.Float64("seconds", runSeconds, "seconds of timed blocks per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from an untraced pass; 1: per-layer metrics")
		scaleF  = flag.String("scale", "full", "block sizes: full or tiny")
		sets    = flag.Int("sets", 1, "run every workload this many times and compare the spread with the bounds")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for results and traces")
	)
	flag.Parse()
	sc := fullScale
	switch *scaleF {
	case "full":
	case "tiny":
		sc = tinyScale
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scaleF))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *scaleF, *sets, *outDir))
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	e := &env{seed: *seed, sc: sc, now: time.Now}
	var (
		r   *result
		err error
	)
	if *trace == 0 {
		r, err = e.runEndToEnd(wl, *seconds)
	} else {
		r, err = e.runPerLayer(wl, *seconds, filepath.Join(*outDir, "trace-"+wl.name+".json"))
	}
	if err != nil {
		fatal(err)
	}
	r.Host = fingerprint()
	printResult(wl, r)
	if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("%s.trace%d.json", wl.name, *trace)), r); err != nil {
		fatal(err)
	}
	// The verdict travels in the result line, which must come last.
	b, err := json.Marshal(r.Line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printResult(wl workload, r *result) {
	pass := "end-to-end (untraced pass)"
	if r.Trace {
		pass = "per-layer (counters, traced pass, ladder)"
	}
	fmt.Printf("workload %s  op=%s  seed=%d  scale=%s  %s\n", wl.name, wl.op, r.Seed, r.Scale, pass)
	for _, d := range r.defs() {
		note := ""
		if d.name == "fidelity.paper_fps_err_pct" {
			note = "  (simulated time, checked against the paper's Table 1, not against hardware)"
		}
		fmt.Printf("  %-38s %18.6g %s%s\n", d.name, r.Line.Metrics[d.name].Value, d.unit, note)
	}
	l := r.Line
	fmt.Printf("  attempted %d  failed %d  fail_share %g  digests %s\n",
		l.Attempted, l.Failed, float64(l.Failed)/float64(l.Attempted), strings.Join(r.Digests[:min(2, len(r.Digests))], " "))
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}

// runAll runs every workload in a child process of its own, so that one
// workload's heap and peak RSS do not bleed into the next, and reports the
// lot. It returns the process exit code.
func runAll(seed int64, seconds float64, scaleName string, sets int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	type cell map[string][]float64 // metric → one value per set
	e2e := make(map[string]cell, len(workloads))
	bad := 0
	host := fingerprint()
	all := make([][]result, sets)
	for set := 0; set < sets; set++ {
		for _, wl := range workloads {
			if e2e[wl.name] == nil {
				e2e[wl.name] = cell{}
			}
			for trace := 0; trace < 2; trace++ {
				line, out, err := runChild(self, wl.name, seed, seconds, scaleName, trace, outDir)
				os.Stdout.Write(out)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s trace=%d: %v\n", wl.name, trace, err)
					bad++
					continue
				}
				if !line.Correct {
					bad++
				}
				if trace == 0 {
					for _, d := range endToEnd {
						e2e[wl.name][d.name] = append(e2e[wl.name][d.name], line.Metrics[d.name].Value)
					}
				}
				all[set] = append(all[set], result{Host: host, Workload: wl.name, Seed: seed, Scale: scaleName, Trace: trace == 1, Line: *line})
			}
		}
	}
	doc := struct {
		Host hostInfo   `json:"host"`
		Sets [][]result `json:"sets"`
	}{host, all}
	if err := writeJSON(filepath.Join(outDir, "results.json"), doc); err != nil {
		fatal(err)
	}
	if sets > 1 {
		fmt.Printf("\nspread over %d sets: (max-min)/median of each end-to-end metric, beside its bound\n", sets)
		for _, wl := range workloads {
			for _, d := range endToEnd {
				xs := e2e[wl.name][d.name]
				if len(xs) < 2 {
					continue
				}
				lo, hi := xs[0], xs[0]
				for _, x := range xs {
					lo, hi = math.Min(lo, x), math.Max(hi, x)
				}
				spread := 0.0
				if m := median(xs); m != 0 {
					spread = (hi - lo) / m
				}
				verdict := "ok"
				if spread > d.bound {
					verdict = "EXCEEDS BOUND"
					bad++
				}
				fmt.Printf("  %-14s %-14s spread %7.4f  bound %5.2f  %s\n", wl.name, d.name, spread, d.bound, verdict)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("\nFAIL: %d runs or spreads out of line\n", bad)
		return 1
	}
	fmt.Println("\nOK: every workload correct, fail_share 0")
	return 0
}

// runChild runs one workload pass in a child process and parses the result
// line it prints last.
func runChild(self, name string, seed int64, seconds float64, scaleName string, trace int, outDir string) (*resultLine, []byte, error) {
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-scale", scaleName, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, out, err
	}
	body := bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(body, '\n')
	var line resultLine
	if err := json.Unmarshal(body[i+1:], &line); err != nil {
		return nil, out, errors.New("no result line: " + err.Error())
	}
	return &line, out[:i+1], nil
}
