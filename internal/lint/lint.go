// Package lint implements scoutlint, a static-analysis suite that enforces
// the repo's path invariants (§3.2 of the paper: attributes and invariants
// established at path-creation time are what make path optimizations sound).
// The analyzers machine-check what DESIGN.md promises in prose: virtual-clock
// determinism, the typed attr.Name vocabulary, error discipline on the data
// path, fbuf/lock hygiene, and no silently dropped errors.
//
// The suite is built on the Go standard library only (go/parser, go/ast,
// go/types, go/importer); go.mod stays dependency-free.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding. File is relative to the module root so output
// and allowlist entries are stable across checkouts.
type Diagnostic struct {
	File string
	Line int
	Col  int
	Rule string
	Msg  string
	// Chain, when set, is the data-path call chain (root first) that makes
	// the finding reachable; `scoutlint -why` prints it under the finding.
	Chain []string
}

// String renders the finding in the canonical "file:line: [rule] msg" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Rule, d.Msg)
}

// Analyzer is one invariant checker. Run is called once per package with a
// Pass whose Files respect the analyzer's scope flags.
type Analyzer struct {
	Name string
	Doc  string
	// IncludeTests adds _test.go files (syntax only, no type info) to the
	// pass. Analyzers that need type info must tolerate Info==nil misses
	// on those files.
	IncludeTests bool
	// InternalOnly restricts the analyzer to packages under
	// <module>/internal/.
	InternalOnly bool
	// NeedsTypes skips packages whose type-check failed entirely.
	NeedsTypes bool
	Run        func(*Pass)
}

// Pass is the per-(analyzer, package) unit of work handed to Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Files are the files in scope for this analyzer (test files included
	// only when the analyzer asked for them).
	Files  []*ast.File
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportfChain(pos, nil, format, args...)
}

// ReportfChain records a finding at pos with the call chain that reaches it;
// the interprocedural analyzers use it so `-why` can print how the data path
// gets there.
func (p *Pass) ReportfChain(pos token.Pos, chain []string, format string, args ...any) {
	position := p.Pkg.Mod.Fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(p.Pkg.Mod.Root, file); err == nil {
		file = filepath.ToSlash(rel)
	}
	p.report(Diagnostic{
		File:  file,
		Line:  position.Line,
		Col:   position.Column,
		Rule:  p.Analyzer.Name,
		Msg:   fmt.Sprintf(format, args...),
		Chain: chain,
	})
}

// All returns every analyzer in the suite, in stable order: the per-function
// checks first, then the call-graph-backed interprocedural ones.
func All() []*Analyzer {
	return []*Analyzer{
		Simclock, AttrKey, NoPanic, LockSafe, ErrCheck, FlowGuard,
		DetLint, ShardGuard, GoGuard, NoPanicDeep, LockSafeDeep, ErrCheckDeep,
	}
}

// ByName resolves a comma-separated analyzer list ("simclock,attrkey").
func ByName(names string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run loads the module rooted at root and applies the analyzers to every
// package, returning the findings sorted by position.
func Run(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	mod, err := Load(root)
	if err != nil {
		return nil, err
	}
	return RunModule(mod, analyzers), nil
}

// AnalyzerTiming is the wall time one analyzer spent across all packages.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunModule applies the analyzers to an already-loaded module.
func RunModule(mod *Module, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunModuleTimed(mod, analyzers, nil)
	return diags
}

// RunModuleTimed is RunModule plus per-analyzer wall-time attribution. The
// clock is injected by the caller (cmd/scoutlint passes time.Now) because
// internal/ code may not read the wall clock directly — simclock enforces
// that, including on this package. A nil now skips timing.
func RunModuleTimed(mod *Module, analyzers []*Analyzer, now func() time.Time) ([]Diagnostic, []AnalyzerTiming) {
	elapsed := make(map[string]time.Duration)
	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		for _, a := range analyzers {
			if a.InternalOnly && !pkg.Internal() {
				continue
			}
			if a.NeedsTypes && pkg.Types == nil {
				continue
			}
			files := pkg.Files
			if a.IncludeTests {
				files = append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
			}
			if len(files) == 0 {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Files:    files,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if now != nil {
				start := now()
				a.Run(pass)
				elapsed[a.Name] += now().Sub(start)
			} else {
				a.Run(pass)
			}
		}
	}
	var timings []AnalyzerTiming
	if now != nil {
		for _, a := range analyzers {
			timings = append(timings, AnalyzerTiming{Name: a.Name, Elapsed: elapsed[a.Name]})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags, timings
}
