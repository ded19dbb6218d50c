package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// loadTestPackage loads one testdata directory as a single-package module,
// pretending it lives at asPath (so package-scoped rules like "internal/
// only" and "the vocabulary package" can be exercised both ways).
func loadTestPackage(t *testing.T, dir, asPath string) *Module {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	mod := &Module{Root: abs, Path: "scout", Fset: token.NewFileSet(), byPath: map[string]*Package{}}
	pkg, err := mod.parseDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatalf("no Go files in %s", dir)
	}
	pkg.Path = asPath
	mod.Pkgs = []*Package{pkg}
	mod.byPath[asPath] = pkg
	mi := &modImporter{mod: mod, std: newStdImporter(mod.Fset)}
	mi.check(pkg)
	for _, e := range pkg.TypeErrs {
		t.Fatalf("testdata %s does not type-check: %v", dir, e)
	}
	return mod
}

var wantQuotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// wants maps file:line to the expected message substrings declared in
// `// want "..."` comments on that line.
func collectWants(t *testing.T, mod *Module) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	for _, pkg := range mod.Pkgs {
		for _, f := range append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...) {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "want ")
					if idx < 0 {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					for _, q := range wantQuotedRe.FindAllString(c.Text[idx:], -1) {
						s, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want string %s: %v", key, q, err)
						}
						wants[key] = append(wants[key], s)
					}
				}
			}
		}
	}
	return wants
}

// TestGolden runs every analyzer over its testdata package and requires the
// findings to agree, line by line, with the // want comments — both
// directions: every want must fire, and every finding must be wanted.
func TestGolden(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
		asPath   string
	}{
		{Simclock, "testdata/simclock", "scout/internal/fake"},
		{Simclock, "testdata/simclockpath", "scout/cmd/fake"},
		{AttrKey, "testdata/attrkey", "scout/internal/fake"},
		{AttrKey, "testdata/attrkeydecl", "scout/internal/attr"},
		{NoPanic, "testdata/nopanic", "scout/internal/fake"},
		{NoPanic, "testdata/nopanicdeep", "scout/internal/fake"},
		{LockSafe, "testdata/locksafe", "scout/internal/fake"},
		{LockSafe, "testdata/locksafedeep", "scout/internal/fake"},
		{ErrCheck, "testdata/errchecklite", "scout/internal/fake"},
		{FlowGuard, "testdata/flowguard", "scout/internal/fake"},
		{DetLint, "testdata/detlint", "scout/internal/fake"},
		{DetLint, "testdata/detexport", "scout/cmd/fake"},
		{ShardGuard, "testdata/shardguard", "scout/internal/fake"},
		{GoGuard, "testdata/goguard", "scout/internal/fake"},
	}
	for _, tc := range cases {
		name := tc.analyzer.Name + "/" + filepath.Base(tc.dir)
		t.Run(name, func(t *testing.T) {
			mod := loadTestPackage(t, tc.dir, tc.asPath)
			diags := RunModule(mod, []*Analyzer{tc.analyzer})
			wants := collectWants(t, mod)

			matched := make(map[string]int) // key -> how many wants satisfied
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.File, d.Line)
				ws := wants[key]
				found := false
				for _, w := range ws {
					if strings.Contains(d.Msg, w) {
						found = true
						matched[key]++
						break
					}
				}
				if !found {
					t.Errorf("unexpected finding %s (no matching want on that line)", d)
				}
			}
			for key, ws := range wants {
				if matched[key] < len(ws) {
					t.Errorf("%s: wanted %d finding(s) matching %q, matched %d",
						key, len(ws), ws, matched[key])
				}
			}
		})
	}
}

// TestAnalyzerScope checks simclock's scope: the same violating file
// produces nothing when the package lives outside internal/ and no data-path
// root reaches it.
func TestAnalyzerScope(t *testing.T) {
	mod := loadTestPackage(t, "testdata/simclock", "scout/cmd/fake")
	if diags := RunModule(mod, []*Analyzer{Simclock}); len(diags) != 0 {
		t.Fatalf("simclock fired outside internal/: %v", diags)
	}
	// attrkey is module-wide: the same relocation must NOT silence it.
	mod = loadTestPackage(t, "testdata/attrkey", "scout/cmd/fake")
	if diags := RunModule(mod, []*Analyzer{AttrKey}); len(diags) == 0 {
		t.Fatal("attrkey is module-wide but reported nothing outside internal/")
	}
}

// TestFlowGuardScope checks the control-plane allowance: relocated into
// internal/core, the same file keeps only the spawned-goroutine finding —
// that rule holds even inside the control plane.
func TestFlowGuardScope(t *testing.T) {
	mod := loadTestPackage(t, "testdata/flowguard", "scout/internal/core")
	diags := RunModule(mod, []*Analyzer{FlowGuard})
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "spawned goroutine") {
		t.Fatalf("want exactly the goroutine finding inside the control plane, got %v", diags)
	}
}

// TestTestFileCoverage checks that IncludeTests analyzers see _test.go
// files: the simclock testdata ships a bench_test.go with a wall-clock call.
func TestTestFileCoverage(t *testing.T) {
	mod := loadTestPackage(t, "testdata/simclock", "scout/internal/fake")
	diags := RunModule(mod, []*Analyzer{Simclock})
	found := false
	for _, d := range diags {
		if d.File == "bench_test.go" {
			found = true
		}
	}
	if !found {
		t.Fatal("simclock reported nothing from bench_test.go; test files are out of scope")
	}
}
