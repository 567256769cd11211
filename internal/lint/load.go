// Package lint is a from-scratch static-analysis driver for the vmt
// module, built on the standard library only (go/parser, go/ast,
// go/types, go/importer — no golang.org/x/tools dependency, matching
// the repo's no-deps ethos).
//
// It exists to enforce the simulator's load-bearing promise at
// compile time rather than discovering its violation at golden-test
// time: determinism — a Config bit-identically determines a Run,
// regardless of worker count, replay order, or wall-clock.
//
// The analyzers (detrand, maporder, floateq, floatkey, hotpath,
// kernelparity) encode that invariant and the hot-path allocation
// discipline; cmd/vmtlint is the CLI driver and scripts/check.sh runs
// it between vet and build.
//
// Scope: the loader analyzes non-test files only. _test.go files are
// exercised by `go test` itself and may legitimately use wall-clock
// timing or exact float comparison against golden fixtures.
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
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("vmt/internal/pcm"); fixture loads may
	// override it so Scope rules can be exercised from testdata.
	Path string
	// Dir is the directory the files came from ("" for in-memory loads).
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check errors. Code that passes
	// `go build` type-checks cleanly, so a non-empty slice usually
	// means the loader's import environment is broken — the driver
	// treats it as a hard failure rather than linting half-typed code.
	TypeErrors []error

	// loader is the Loader that type-checked this package; the
	// module-wide analyzers (detrand taint, hotpath) reach through it
	// for facts about the packages this one's identifiers resolve into.
	loader *Loader
}

// Loader discovers and type-checks the packages of one Go module
// without shelling out to the go command. Module-local import paths
// resolve through the loader itself (memoized, dependency order);
// everything else (the standard library) resolves through
// go/importer's gc importer, falling back to the slower from-source
// importer when export data is unavailable.
type Loader struct {
	ModuleDir  string
	ModulePath string

	fset    *token.FileSet
	dirs    map[string]string // import path → directory
	pkgs    map[string]*Package
	loading map[string]bool
	gc      types.Importer
	source  types.Importer
	checked int
	mod     *moduleInfo
}

// NewLoader discovers the module rooted at moduleDir (the directory
// holding go.mod) and returns a loader for its packages.
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		fset:       fset,
		dirs:       map[string]string{},
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
		gc:         importer.Default(),
		source:     importer.ForCompiler(fset, "source", nil),
	}
	if err := l.discover(); err != nil {
		return nil, err
	}
	return l, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// discover walks the module tree recording every directory that holds
// non-test Go files. Directories named testdata or vendor, and hidden
// directories, are skipped — the same exclusions the go tool applies.
func (l *Loader) discover() error {
	return filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir &&
			(name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := goFiles(path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		imp := l.ModulePath
		if rel != "." {
			imp = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		l.dirs[imp] = path
		return nil
	})
}

// goFiles lists the non-test .go files of dir, sorted by name so load
// results are independent of readdir order.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}

// PackageDir returns the directory of a discovered module package.
func (l *Loader) PackageDir(path string) (string, bool) {
	dir, ok := l.dirs[path]
	return dir, ok
}

// Checked returns how many packages this loader has parsed and
// type-checked. The diagnostics cache's contract is observable here: a
// fully warm cached run never calls check, so Checked stays zero.
func (l *Loader) Checked() int { return l.checked }

// ModulePackages returns the sorted import paths of every package the
// loader discovered in the module.
func (l *Loader) ModulePackages() []string {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs { //vmtlint:allow maporder paths are sorted immediately below
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Load type-checks the module package with the given import path,
// loading its module-local dependencies first. Results are memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("lint: unknown module package %q", path)
	}
	files, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	return l.check(path, dir, files, nil)
}

// LoadDir type-checks the Go files of an arbitrary directory (a
// testdata fixture) as a package with the given import path. The
// fixture may import module packages; they resolve against the real
// tree.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	files, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return l.check(asPath, dir, files, nil)
}

// LoadFiles type-checks an in-memory package: filename → source. Used
// by tests that mutate a fixture (e.g. dropping one cache-key
// exclusion) without touching disk.
func (l *Loader) LoadFiles(asPath string, files map[string]string) (*Package, error) {
	names := make([]string, 0, len(files))
	for name := range files { //vmtlint:allow maporder names are sorted immediately below
		names = append(names, name)
	}
	sort.Strings(names)
	return l.check(asPath, "", names, files)
}

// check parses and type-checks one package. When overlay is non-nil,
// file names index into it instead of the filesystem.
func (l *Loader) check(path, dir string, files []string, overlay map[string]string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	l.checked++

	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, loader: l}
	for _, name := range files {
		var src any
		if overlay != nil {
			src = overlay[name]
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}

	// Pre-load module-local imports so importFor finds them memoized.
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if l.isModuleLocal(ip) && ip != path {
				if _, err := l.Load(ip); err != nil {
					return nil, fmt.Errorf("lint: loading %s (imported by %s): %w", ip, path, err)
				}
			}
		}
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: importerFunc(l.importFor),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) isModuleLocal(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// importFor resolves one import during type-checking: module-local
// paths from the loader's memoized packages, everything else from the
// gc importer (compiled export data, fast) with a from-source fallback.
func (l *Loader) importFor(path string) (*types.Package, error) {
	// Anything already loaded under this path wins — this lets one
	// testdata fixture import another that was loaded into the same
	// loader under a synthetic path.
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if l.isModuleLocal(path) {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if p, err := l.gc.Import(path); err == nil {
		return p, nil
	}
	return l.source.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
