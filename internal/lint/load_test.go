package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scratchLoader lays out a throwaway module named scratch on disk and
// returns a loader over it.
func scratchLoader(t *testing.T, files map[string]string) *Loader {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// twoPackages is a module whose packages import disjoint standard
// library packages, so a listing made for one alone would miss the
// other's.
func twoPackages() map[string]string {
	return map[string]string{
		"a/a.go": "package a\n\nimport \"strings\"\n\nfunc Upper(s string) string { return strings.ToUpper(s) }\n",
		"b/b.go": "package b\n\nimport (\n\t\"time\"\n\t\"unsafe\"\n)\n\nconst Size = unsafe.Sizeof(time.Duration(0))\n",
	}
}

// Loading one package lists the non-module imports of every module
// package, the unloaded one's included: one go list serves the module.
func TestOneListingServesModule(t *testing.T) {
	l := scratchLoader(t, twoPackages())
	pkg, err := l.Load("scratch/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	if _, ok := l.pkgs["scratch/b"]; ok {
		t.Fatal("scratch/b was loaded; the test needs it unloaded")
	}
	imports := l.moduleImports()
	if strings.Join(imports, " ") != "strings time" {
		t.Fatalf("module imports = %v, want [strings time]", imports)
	}
	for _, path := range imports {
		if l.exports[path] == "" {
			t.Errorf("export map lacks %q after loading scratch/a: %v", path, l.exports)
		}
	}
}

// A fixture import that the module listing lacks is listed on demand
// into the same importer, so a listed package's type passes to an
// on-demand package's parameter, and both see one io package.
func TestOnDemandListingKeepsTypeIdentity(t *testing.T) {
	l := scratchLoader(t, twoPackages())
	if _, err := l.Load("scratch/a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.exports["regexp"]; ok {
		t.Fatal("regexp is already listed; the test needs an on-demand import")
	}
	pkg, err := l.LoadFiles("fixture/ondemand", map[string]string{
		"f.go": `package ondemand

import (
	"regexp"
	"strings"
)

var Matched = regexp.MustCompile("x").MatchReader(strings.NewReader("x"))
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	if l.exports["regexp"] == "" {
		t.Fatal("regexp was not listed on demand")
	}
	imports := map[string]*types.Package{}
	for _, p := range pkg.Types.Imports() {
		imports[p.Path()] = p
	}
	// ioOf returns the io package that a method's first parameter type
	// belongs to, as the fixture's import of pkgPath sees it.
	ioOf := func(pkgPath, typeName, method string) *types.Package {
		p := imports[pkgPath]
		m, _, _ := types.LookupFieldOrMethod(p.Scope().Lookup(typeName).Type(), true, p, method)
		return m.Type().(*types.Signature).Params().At(0).Type().(*types.Named).Obj().Pkg()
	}
	if ioOf("regexp", "Regexp", "MatchReader") != ioOf("strings", "Reader", "WriteTo") {
		t.Error("regexp and strings see two different io packages")
	}
}

// A module listing that fails does not fail packages whose own imports
// resolve: each import is then listed on its own, and only the package
// with the unresolvable one fails, as a TypeCheckError.
func TestFailedListingBlamesItsImport(t *testing.T) {
	files := twoPackages()
	files["b/b.go"] = "package b\n\nimport \"nosuchstdpkg\"\n\nvar X = nosuchstdpkg.X\n"
	l := scratchLoader(t, files)
	if _, err := RunModule(l, []string{"scratch/a"}, Analyzers, false); err != nil {
		t.Fatalf("scratch/a: %v", err)
	}
	_, err := RunModule(l, []string{"scratch/b"}, Analyzers, false)
	terr, ok := err.(*TypeCheckError)
	if !ok {
		t.Fatalf("err = %v, want *TypeCheckError", err)
	}
	if terr.Path != "scratch/b" || !strings.Contains(terr.Errs[0].Error(), "nosuchstdpkg") {
		t.Fatalf("TypeCheckError = %v", terr)
	}
}

// A type-error package surfaces as a TypeCheckError from RunModule.
func TestRunCachedTypeError(t *testing.T) {
	l := scratchLoader(t, map[string]string{
		"broken.go": "package scratch\n\nfunc Bad() int { return \"not an int\" }\n",
	})
	_, err := RunModule(l, l.ModulePackages(), Analyzers, false)
	terr, ok := err.(*TypeCheckError)
	if !ok {
		t.Fatalf("err = %v, want *TypeCheckError", err)
	}
	if terr.Path != "scratch" || len(terr.Errs) == 0 {
		t.Fatalf("TypeCheckError = %+v", terr)
	}
}
