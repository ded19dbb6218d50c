// mpegbench regenerates the paper's evaluation: every table and in-text
// experiment, printed next to the published numbers. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for the recorded results.
//
// Usage:
//
//	mpegbench                  # run everything at full size
//	mpegbench -run table1,edf  # some experiments (-h lists the names)
//	mpegbench -smoke           # CI size, for the experiments that have one
//	mpegbench -gate -smoke     # the determinism gate: run each selected
//	                           # experiment twice, compare digests with each
//	                           # other and with the committed golden ones,
//	                           # and apply the experiment's own check
//	mpegbench -run e10 -trace trace.json -metrics metrics.json
//	                           # per-stage breakdown + Perfetto trace dump
//	mpegbench -run table1 -cpuprofile cpu.prof -memprofile mem.prof
//	                           # where the simulator's own wall time and
//	                           # allocations go (go tool pprof -top)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"scout/internal/exp"
)

func main() {
	names := strings.Join(exp.Names(), ",")
	which := flag.String("run", "all", "experiments to run, comma-separated: all or any of "+names)
	smoke := flag.Bool("smoke", false, "run each experiment at its CI size, if it has one")
	gate := flag.Bool("gate", false, "run each experiment twice and require equal digests, a passing check and, with -smoke, the golden digest")
	traceOut := flag.String("trace", "", "write E10's highest-load run as Chrome trace_event JSON to this file")
	metricsOut := flag.String("metrics", "", "write E10's highest-load metrics JSON (pathtop input) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the selected experiments to this file")
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mpegbench: "+format+"\n", args...)
		os.Exit(2)
	}
	selected := strings.Split(*which, ",")
	if *which == "all" {
		selected = exp.Names()
	}
	for _, name := range selected {
		if !slices.Contains(exp.Names(), name) {
			usage("unknown experiment %q; the experiments are %s", name, names)
		}
	}
	if (*traceOut != "" || *metricsOut != "") && (*gate || !slices.Contains(selected, "e10")) {
		usage("-trace and -metrics export a run of e10: select it with -run, without -gate")
	}

	// An experiment that fails its gate exits at once and leaves no profile.
	defer startProfiles(*cpuProfile, *memProfile)()

	w := os.Stdout
	failed := false
	for _, e := range exp.Experiments {
		if !slices.Contains(selected, e.Name) {
			continue
		}
		start := time.Now()
		if *gate {
			digest, err := e.Gate(*smoke)
			took := time.Since(start).Round(time.Millisecond)
			if err != nil {
				failed = true
				fmt.Fprintf(w, "FAIL %v (%v)\n", err, took)
			} else {
				fmt.Fprintf(w, "ok   %-10s 0x%016x (%v)\n", e.Name, digest, took)
			}
			continue
		}
		res := e.Run(exp.Options{Smoke: *smoke, Wall: func() time.Duration { return time.Since(start) }})
		res.Print(w)
		if r, ok := res.(exp.E10Result); ok {
			writeOut(w, *traceOut, "trace_event JSON (load at ui.perfetto.dev)", r.Tracer().WriteTrace)
			writeOut(w, *metricsOut, "metrics JSON (view with pathtop)", r.Tracer().WriteMetricsJSON)
		}
		if err := exp.Check(res); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "(%s took %v wall-clock)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// writeOut writes one of E10's exports to path ("" = not asked for).
func writeOut(w io.Writer, path, what string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	var b bytes.Buffer
	err := write(&b)
	if err == nil {
		err = os.WriteFile(path, b.Bytes(), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpegbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "wrote %s to %s\n", what, path)
}

// startProfiles starts the CPU profile (if asked for) and returns the
// function that finishes it and writes the allocation profile.
func startProfiles(cpuPath, memPath string) (stop func()) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mpegbench:", err)
		os.Exit(1)
	}
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fail(err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fail(err)
		}
		runtime.GC() // settle the statistics the profile reports
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}
