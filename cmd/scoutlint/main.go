// Command scoutlint runs the repo's static-analysis suite (internal/lint):
// one analyzer per path invariant the paper establishes at path-creation
// time — virtual-clock determinism, the typed attr.Name vocabulary,
// data-path error discipline, lock/callback hygiene, and no silently dropped
// errors.
//
// Usage:
//
//	go run ./cmd/scoutlint [flags] [./...]
//
// It always analyzes the whole module; ./... is the only package pattern it
// accepts. Findings print as "file:line: [rule] message" and make the exit
// status nonzero; -why adds the data-path call chain that makes a finding
// reachable. There is no suppression file: an exception is a //scout: marker
// in the code it excuses. -graph dumps the shared data-path call graph in a
// stable text form.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"scout/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("scoutlint", flag.ContinueOnError)
	var (
		listFlag   = fs.Bool("list", false, "list analyzers and exit")
		whyFlag    = fs.Bool("why", false, "print the data-path call chain under each finding that has one")
		graphFlag  = fs.String("graph", "", "dump the data-path call graph to the given file ('-' for stdout) and exit")
		timingFlag = fs.Bool("timing", false, "print per-analyzer wall time")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fs.NArg() > 1 || (fs.NArg() == 1 && fs.Arg(0) != "./...") {
		fmt.Fprintf(fs.Output(), "scoutlint: got %q; the only package pattern is ./... (the whole module is always analyzed)\n", fs.Args())
		fs.Usage()
		return 2
	}

	analyzers := lint.All()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoutlint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoutlint:", err)
		return 2
	}
	mod, err := lint.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoutlint:", err)
		return 2
	}
	for _, pkg := range mod.Pkgs {
		for _, terr := range pkg.TypeErrs {
			fmt.Fprintf(os.Stderr, "scoutlint: type error (continuing): %v\n", terr)
		}
	}

	if *graphFlag != "" {
		out := os.Stdout
		if *graphFlag != "-" {
			f, err := os.Create(*graphFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scoutlint:", err)
				return 2
			}
			defer f.Close()
			out = f
		}
		if err := mod.Graph().Dump(out); err != nil {
			fmt.Fprintln(os.Stderr, "scoutlint:", err)
			return 2
		}
		return 0
	}

	var now func() time.Time
	if *timingFlag {
		now = time.Now
	}
	diags, timings := lint.RunModuleTimed(mod, analyzers, now)
	for _, d := range diags {
		fmt.Println(d.String())
		if *whyFlag {
			for _, frame := range d.Chain {
				fmt.Printf("    %s\n", frame)
			}
		}
	}
	for _, t := range timings {
		fmt.Fprintf(os.Stderr, "scoutlint: timing %-14s %8.1fms\n", t.Name, float64(t.Elapsed.Microseconds())/1000)
	}
	if len(diags) > 0 {
		return 1
	}
	fmt.Printf("scoutlint: %d analyzer(s), %d package(s), clean\n", len(analyzers), len(mod.Pkgs))
	return 0
}
