package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Module is a loaded Go module: every package parsed, and type-checked in
// dependency order with a stdlib importer for out-of-module imports.
type Module struct {
	Root string // absolute filesystem root (dir containing go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package

	byPath map[string]*Package
	graph  *CallGraph     // lazily built data-path call graph (see callgraph.go)
	shard  *shardModFacts // lazily built shardguard facts (see shardguard.go)
}

// Package is one package in the module.
type Package struct {
	Mod  *Module
	Path string // import path
	Dir  string
	// Files are the non-test files; they carry type info when the check
	// succeeded. TestFiles are *_test.go files, parsed but not checked
	// (external test packages would need a second type-check universe;
	// syntactic analyzers cover them).
	Files     []*ast.File
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
	TypeErrs  []error

	checked bool
}

// Internal reports whether the package lives under <module>/internal/.
func (p *Package) Internal() bool {
	return strings.HasPrefix(p.Path, p.Mod.Path+"/internal/")
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModuleRoot walks up from dir to the nearest directory with a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load parses and type-checks every package under root (skipping testdata,
// vendor, and hidden directories).
func Load(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: cannot read go.mod: %w", err)
	}
	m := moduleRe.FindSubmatch(modBytes)
	if m == nil {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	mod := &Module{
		Root:   root,
		Path:   string(m[1]),
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		pkg, err := mod.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			mod.Pkgs = append(mod.Pkgs, pkg)
			mod.byPath[pkg.Path] = pkg
		}
	}

	imp := &modImporter{mod: mod, std: newStdImporter(mod.Fset)}
	for _, pkg := range mod.Pkgs {
		imp.check(pkg)
	}
	return mod, nil
}

func (m *Module) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	path := m.Path
	if rel != "." {
		path = m.Path + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Mod: m, Path: path, Dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
		}
	}
	if len(pkg.Files) == 0 && len(pkg.TestFiles) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// stdImporter resolves out-of-module (standard library) imports: the gc
// export-data importer first, falling back to type-checking from source.
type stdImporter struct {
	gc    types.Importer
	src   types.Importer
	cache map[string]*types.Package
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	return &stdImporter{
		gc:    importer.ForCompiler(fset, "gc", nil),
		src:   importer.ForCompiler(fset, "source", nil),
		cache: make(map[string]*types.Package),
	}
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := s.cache[path]; ok {
		return pkg, nil
	}
	pkg, err := s.gc.Import(path)
	if err != nil {
		pkg, err = s.src.Import(path)
	}
	if err != nil {
		return nil, err
	}
	s.cache[path] = pkg
	return pkg, nil
}

// modImporter resolves imports during the module type-check: module-internal
// packages are checked on demand (imports form a DAG, so the recursion
// terminates); everything else goes to the stdlib importer.
type modImporter struct {
	mod      *Module
	std      *stdImporter
	checking []string
}

func (mi *modImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := mi.mod.byPath[path]; ok {
		for _, active := range mi.checking {
			if active == path {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
		}
		mi.check(pkg)
		if pkg.Types == nil {
			return nil, fmt.Errorf("package %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return mi.std.Import(path)
}

func (mi *modImporter) check(pkg *Package) {
	if pkg.checked {
		return
	}
	pkg.checked = true
	if len(pkg.Files) == 0 {
		return // test-only package; syntactic analyzers still see it
	}
	mi.checking = append(mi.checking, pkg.Path)
	defer func() { mi.checking = mi.checking[:len(mi.checking)-1] }()

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: mi,
		Error:    func(err error) { pkg.TypeErrs = append(pkg.TypeErrs, err) },
	}
	tpkg, err := conf.Check(pkg.Path, mi.mod.Fset, pkg.Files, info)
	if err != nil && tpkg == nil {
		return
	}
	pkg.Types = tpkg
	pkg.Info = info
}
