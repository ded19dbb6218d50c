// mpegbench regenerates the paper's evaluation: every table and in-text
// experiment, printed next to the published numbers. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for the recorded results.
//
// Usage:
//
//	mpegbench                  # run everything
//	mpegbench -run table1      # one experiment: micro|table1|table2|edf|admission|queues|ilp|loss|e10|overload|e12|e13|e14
//	mpegbench -edf-full        # EDF experiment at full clip lengths
//	mpegbench -run e10 -trace trace.json -metrics metrics.json
//	                           # per-stage breakdown + Perfetto trace dump
//	mpegbench -run e10 -e10-smoke
//	                           # CI-sized E10 (short clip, two load levels)
//	mpegbench -run overload -overload-smoke
//	                           # CI-sized E11 (short clip, one overcommit)
//	mpegbench -run e12 -e12-smoke
//	                           # kernel vs reference kernel at CI size
//	mpegbench -run e13 -e13-smoke
//	                           # multipath policy grid at CI size
//	mpegbench -run e14 -e14-smoke
//	                           # live path migration gate at CI size
//	mpegbench -run e15 [-e15-smoke]
//	                           # sharded-kernel scale sweep + shard-count
//	                           # invisibility gate (smoke = CI size)
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
	"time"

	"scout/internal/exp"
	"scout/internal/mpeg"
)

func main() {
	which := flag.String("run", "all", "experiment: all|micro|table1|table2|edf|admission|queues|ilp|loss|e10|overload|e12|e13|e14|e15")
	edfFull := flag.Bool("edf-full", false, "run the EDF experiment at full clip lengths (1345/1758 frames)")
	e10Smoke := flag.Bool("e10-smoke", false, "run E10 at CI size (short clip, loads {0,2})")
	overloadSmoke := flag.Bool("overload-smoke", false, "run E11 at CI size (short clip, overcommit {1.5})")
	e12Smoke := flag.Bool("e12-smoke", false, "run E12 at CI size (short clip)")
	e13Smoke := flag.Bool("e13-smoke", false, "run E13 at CI size (short clip)")
	e14Smoke := flag.Bool("e14-smoke", false, "run E14 at CI size (short clip)")
	e15Smoke := flag.Bool("e15-smoke", false, "run E15 at CI size (dozens of paths, shards {1,2})")
	traceOut := flag.String("trace", "", "write E10's highest-load run as Chrome trace_event JSON to this file")
	metricsOut := flag.String("metrics", "", "write E10's highest-load metrics JSON (pathtop input) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the selected experiments to this file")
	flag.Parse()

	// An experiment that fails its gate exits at once and leaves no profile.
	defer startProfiles(*cpuProfile, *memProfile)()

	w := os.Stdout
	run := func(name string, fn func()) {
		if *which != "all" && *which != name {
			return
		}
		start := time.Now()
		fn()
		fmt.Fprintf(w, "(%s took %v wall-clock)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("micro", func() {
		k, err := exp.NewMicroKernel()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := exp.MeasureFootprint(k)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exp.PrintFootprint(w, f)
		fmt.Fprintln(w, "(run `go test -bench='BenchmarkE1|BenchmarkE2' .` for the")
		fmt.Fprintln(w, " wall-clock path-creation and demux microbenchmarks)")
	})

	run("table1", func() {
		exp.PrintTable1(w, exp.RunTable1(nil))
	})

	run("table2", func() {
		exp.PrintTable2(w, exp.RunTable2())
	})

	run("edf", func() {
		cfg := exp.EDFConfig{NeptuneFrames: 400, CanyonFrames: 600}
		if *edfFull {
			cfg = exp.EDFConfig{}
		}
		rows := exp.RunEDF(cfg, []string{"edf", "rr"}, []int{16, 64, 128, 256, 512})
		exp.PrintEDF(w, rows)
	})

	run("admission", func() {
		exp.PrintAdmission(w, exp.RunAdmission(400))
	})

	run("queues", func() {
		exp.PrintQueueSizing(w, exp.RunQueueSizing(nil, nil))
	})

	run("loss", func() {
		exp.PrintLoss(w, mpeg.Neptune.Name, exp.RunLoss(mpeg.Neptune))
	})

	run("e10", func() {
		cfg := exp.E10Config{}
		if *e10Smoke {
			cfg = exp.SmokeE10Config()
		}
		rows := exp.RunE10(cfg)
		exp.PrintE10(w, cfg, rows)
		if len(rows) == 0 {
			return
		}
		last := rows[len(rows)-1]
		writeOut := func(path, what string, write func(io.Writer) error) {
			if path == "" {
				return
			}
			var b bytes.Buffer
			if err := write(&b); err == nil {
				err = os.WriteFile(path, b.Bytes(), 0o644)
				if err == nil {
					fmt.Fprintf(w, "wrote %s to %s\n", what, path)
					return
				}
				fmt.Fprintln(os.Stderr, err)
			} else {
				fmt.Fprintln(os.Stderr, err)
			}
			os.Exit(1)
		}
		writeOut(*traceOut, "trace_event JSON (load at ui.perfetto.dev)", last.Tracer.WriteTrace)
		writeOut(*metricsOut, "metrics JSON (view with pathtop)", last.Tracer.WriteMetricsJSON)
	})

	run("overload", func() {
		cfg := exp.E11Config{}
		if *overloadSmoke {
			cfg = exp.SmokeOverloadConfig()
		}
		exp.PrintE11(w, exp.RunE11(cfg))
	})

	run("e12", func() {
		cfg := exp.E12Config{}
		if *e12Smoke {
			cfg = exp.SmokeE12Config()
		}
		res := exp.RunE12(cfg)
		exp.PrintE12(w, res)
		if !res.Match() {
			os.Exit(1)
		}
	})

	run("e13", func() {
		cfg := exp.E13Config{}
		if *e13Smoke {
			cfg = exp.SmokeE13Config()
		}
		exp.PrintE13(w, exp.RunE13(cfg))
	})

	run("e14", func() {
		cfg := exp.E14Config{}
		if *e14Smoke {
			cfg = exp.SmokeE14Config()
		}
		res := exp.RunE14(cfg)
		exp.PrintE14(w, res)
		if !res.Ok() {
			os.Exit(1)
		}
	})

	run("e15", func() {
		cfg := exp.E15Config{}
		if *e15Smoke {
			cfg = exp.SmokeE15Config()
		}
		start := time.Now()
		cfg.Wall = func() time.Duration { return time.Since(start) }
		res := exp.RunE15(cfg)
		exp.PrintE15(w, res)
		if !res.Match() {
			os.Exit(1)
		}
		// The speedup target only means something on a multicore host; CI
		// and laptops assert it, single-CPU containers report honestly.
		if res.CPUs >= 4 {
			if sp := res.SpeedupAt(4); sp > 0 && sp < 3.0 {
				fmt.Fprintf(os.Stderr, "e15: speedup at 4 shards %.2fx, want >= 3x\n", sp)
				os.Exit(1)
			}
		}
	})

	run("ilp", func() {
		on := exp.RunILP(true, 100)
		off := exp.RunILP(false, 100)
		fmt.Fprintf(w, "§4.1 ILP transformation (UDP checksum fused into MPEG read):\n")
		fmt.Fprintf(w, "per-packet path CPU: %v without, %v with → %v saved\n", off, on, off-on)
	})
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
