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
// is stable across checkouts.
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
// the graph-backed analyzers use it so `-why` can print how the data path
// gets there.
func (p *Pass) ReportfChain(pos token.Pos, chain []string, format string, args ...any) {
	position := p.Pkg.Mod.Fset.Position(pos)
	p.report(Diagnostic{
		File:  p.Pkg.Mod.relPath(position.Filename),
		Line:  position.Line,
		Col:   position.Column,
		Rule:  p.Analyzer.Name,
		Msg:   fmt.Sprintf(format, args...),
		Chain: chain,
	})
}

// relPath renders file relative to the module root, slash-separated.
func (m *Module) relPath(file string) string {
	if rel, err := filepath.Rel(m.Root, file); err == nil {
		return filepath.ToSlash(rel)
	}
	return file
}

// All returns every analyzer in the suite, one per invariant, in stable
// order.
func All() []*Analyzer {
	return []*Analyzer{
		Simclock, AttrKey, NoPanic, LockSafe, ErrCheck, FlowGuard,
		DetLint, ShardGuard, GoGuard,
	}
}

// An exception to an invariant is recorded in the code it excuses, as a
// `//scout:<marker> <why>` comment with a non-empty reason: `assert` in a
// function's doc comment (nopanic), `spawn` on or above a `go` statement
// (goguard), and `confined` on a package-level var declaration (shardguard).

// scoutMarker reports whether c is a `//scout:<name> <why>` marker.
func scoutMarker(c *ast.Comment, name string) bool {
	why, ok := strings.CutPrefix(c.Text, "//scout:"+name+" ")
	return ok && strings.TrimSpace(why) != ""
}

// markedGroup reports whether any comment in cg is a `//scout:<name>` marker.
func markedGroup(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if scoutMarker(c, name) {
			return true
		}
	}
	return false
}

// commentNear reports whether a comment ends on pos's line or the line above
// it; when marker is set, only a `//scout:<marker> <why>` comment counts.
func commentNear(pass *Pass, pos token.Pos, marker string) bool {
	fset := pass.Pkg.Mod.Fset
	line := fset.Position(pos).Line
	for _, f := range pass.Files {
		if pos < f.FileStart || pos > f.FileEnd {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				cl := fset.Position(c.End()).Line
				if (cl == line || cl == line-1) && (marker == "" || scoutMarker(c, marker)) {
					return true
				}
			}
		}
	}
	return false
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
