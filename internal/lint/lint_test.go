package lint

import (
	"go/token"
	"strings"
	"testing"
)

func TestDetrandFixture(t *testing.T)  { lintFixture(t, "detrand", Detrand) }
func TestMapOrderFixture(t *testing.T) { lintFixture(t, "maporder", MapOrder) }
func TestFloatEqFixture(t *testing.T)  { lintFixture(t, "floateq", FloatEq) }
func TestFloatKeyFixture(t *testing.T) { lintFixture(t, "floatkey", FloatKey) }

// TestAllowFixture runs no analyzers at all: malformed-directive
// diagnostics come from the always-on suppression scanner.
func TestAllowFixture(t *testing.T) { lintFixture(t, "allowbad") }

// TestStrictAllowFixture pins strict mode: used allows stay silent,
// dead allows are diagnostics, duplicates covering one finding are
// both used.
func TestStrictAllowFixture(t *testing.T) {
	lintFixtureStrict(t, "strictallow", FloatEq, MapOrder)
}

// TestStrictIsStrictOnly pins that a non-strict run never reports
// unused allows — strict is opt-in, so the default exit-0 contract of
// a clean tree cannot flip when an allow goes stale.
func TestStrictIsStrictOnly(t *testing.T) {
	pkg := loadFixture(t, "strictallow")
	for _, d := range RunUnscoped(pkg, []*Analyzer{FloatEq, MapOrder}) {
		t.Errorf("non-strict run reported: %s", d)
	}
}

// TestStrictScopeAwareness: an allow naming an analyzer that is scoped
// out of its package is never reported unused — the analyzer did not
// look, so unusedness was never tested.
func TestStrictScopeAwareness(t *testing.T) {
	loader := testLoader(t)
	pkg, err := loader.LoadFiles("fixture/scoped", map[string]string{
		"scoped.go": `package scoped

func f(a, b int) bool {
	//vmtlint:allow detrand detrand is scoped out here, so this is not judged
	return a == b
}

func g(a, b int) bool {
	//vmtlint:allow floateq floateq does run here, and this excuses nothing
	return a == b
}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	diags := RunStrict([]*Package{pkg}, []*Analyzer{Detrand, FloatEq})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics (%v), want exactly the floateq one", len(diags), diags)
	}
	if d := diags[0]; d.Analyzer != AllowAnalyzerName ||
		!strings.Contains(d.Message, "unused vmtlint:allow floateq") || d.Position.Line != 9 {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{
		Position: token.Position{Filename: "internal/sim/engine.go", Line: 42},
		Analyzer: "detrand",
		Message:  "time.Now reads the wall clock",
	}
	want := "internal/sim/engine.go:42: [detrand] time.Now reads the wall clock"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		want     bool
	}{
		{Detrand, "vmt", true},
		{Detrand, "vmt/internal/cluster", true},
		{Detrand, "vmt/internal/sched", true},
		{Detrand, "vmt/internal/sched/sub", true},
		{Detrand, "vmt/internal/telemetry", false},
		{Detrand, "vmt/cmd/vmtsim", false},
		{Detrand, "vmtother", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Scope(c.path); got != c.want {
			t.Errorf("%s.Scope(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
	if MapOrder.Scope != nil || FloatEq.Scope != nil || FloatKey.Scope != nil {
		t.Error("maporder, floateq, and floatkey are module-wide; Scope should be nil")
	}
}

// TestSuppressionAdjacency pins the allow comment's reach: its own
// line and the line directly below, nothing further.
func TestSuppressionAdjacency(t *testing.T) {
	loader := testLoader(t)
	pkg, err := loader.LoadFiles("fixture/adjacency", map[string]string{
		"adj.go": `package adjacency

func trailing(a, b float64) bool {
	return a == b //vmtlint:allow floateq suppressed on the same line
}

func above(a, b float64) bool {
	//vmtlint:allow floateq suppressed from the line above
	return a == b
}

func tooFar(a, b float64) bool {
	//vmtlint:allow floateq two lines up reaches nothing

	return a == b
}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	diags := RunUnscoped(pkg, []*Analyzer{FloatEq})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics (%v), want exactly the out-of-reach one", len(diags), diags)
	}
	if diags[0].Position.Line != 15 {
		t.Errorf("surviving diagnostic at line %d, want 15 (allow two lines up must not reach)", diags[0].Position.Line)
	}
}

// TestRepoIsClean is the in-process form of the acceptance criterion
// `go run ./cmd/vmtlint -strict ./...` exits 0: the tree carries no
// unsuppressed violations of its own invariants and no stale allows.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader := testLoader(t)
	var pkgs []*Package
	for _, path := range loader.ModulePackages() {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("type-checking %s: %v", path, pkg.TypeErrors)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, d := range RunStrict(pkgs, Analyzers) {
		t.Errorf("unsuppressed violation: %s", d)
	}
}

// TestLoaderDiscoversModule sanity-checks discovery: the root package,
// a nested internal package, and a command must all be present, and
// testdata must not.
func TestLoaderDiscoversModule(t *testing.T) {
	loader := testLoader(t)
	paths := loader.ModulePackages()
	want := []string{"vmt", "vmt/internal/lint", "vmt/internal/thermal", "vmt/cmd/vmtlint"}
	for _, w := range want {
		found := false
		for _, p := range paths {
			found = found || p == w
		}
		if !found {
			t.Errorf("ModulePackages missing %q", w)
		}
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("ModulePackages includes testdata package %q", p)
		}
	}
}
