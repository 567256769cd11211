package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("[detrand]") and in
	// //vmtlint:allow suppressions.
	Name string
	// Doc is a one-paragraph description for `vmtlint -list`.
	Doc string
	// Scope reports whether the analyzer applies to the package with
	// the given import path. nil means every package.
	Scope func(pkgPath string) bool
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(*Pass)
}

// Analyzers is the registry the driver and the //vmtlint:allow
// validator share. Order is presentation order for `vmtlint -list`.
var Analyzers = []*Analyzer{Detrand, MapOrder, FloatEq, FloatKey, Hotpath, KernelParity}

// AllowAnalyzerName is the pseudo-analyzer that owns diagnostics about
// the suppression comments themselves (malformed directive, unknown
// analyzer, missing reason). It is always on and cannot be suppressed.
const AllowAnalyzerName = "allow"

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, formatted as "file:line: [analyzer] message".
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
	// Allowed marks a finding suppressed by a //vmtlint:allow directive.
	// The public Run entry points drop allowed diagnostics; the cache
	// and the -json output keep them so CI can see what was waived.
	Allowed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Position.Filename, d.Position.Line, d.Analyzer, d.Message)
}

// Run applies the analyzers to every package, honoring Scope rules and
// //vmtlint:allow suppressions, and returns the surviving diagnostics
// sorted by file, line, analyzer, and message. Diagnostics about the
// suppression comments themselves are always included.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return runAll(pkgs, analyzers, false)
}

// RunStrict is Run plus unused-allow detection: a //vmtlint:allow that
// suppresses nothing — because the code it excused drifted away — is
// itself a diagnostic from the always-on "allow" pseudo-analyzer.
// Detection is scope-aware: an allow naming an analyzer that does not
// run over its package is never reported, since its unusedness was
// never actually tested.
func RunStrict(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return runAll(pkgs, analyzers, true)
}

func runAll(pkgs []*Package, analyzers []*Analyzer, strict bool) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		all = append(all, Live(runPackage(pkg, analyzers, true, strict))...)
	}
	sortDiagnostics(all)
	return all
}

// Live filters diagnostics down to the unsuppressed ones.
func Live(diags []Diagnostic) []Diagnostic {
	live := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !d.Allowed {
			live = append(live, d)
		}
	}
	return live
}

// RunUnscoped is Run for a single package with Scope rules ignored —
// the fixture-test entry point, where a testdata package stands in for
// a real one.
func RunUnscoped(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags := Live(runPackage(pkg, analyzers, false, false))
	sortDiagnostics(diags)
	return diags
}

// RunUnscopedStrict is RunUnscoped with unused-allow detection, for
// fixtures that pin strict mode's diagnostics.
func RunUnscopedStrict(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags := Live(runPackage(pkg, analyzers, false, true))
	sortDiagnostics(diags)
	return diags
}

// runPackage returns every diagnostic of one package, suppressed ones
// included (marked Allowed rather than dropped, so the cache and the
// -json output retain them).
func runPackage(pkg *Package, analyzers []*Analyzer, useScope, strict bool) []Diagnostic {
	allows, diags := collectAllows(pkg)
	diags = append(diags, collectVmtDiags(pkg)...)
	ran := map[string]bool{}
	for _, a := range analyzers {
		if useScope && a.Scope != nil && !a.Scope(pkg.Path) {
			continue
		}
		ran[a.Name] = true
		pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
		a.Run(pass)
	}
	for i := range diags {
		if diags[i].Analyzer != AllowAnalyzerName && allows.covers(diags[i]) {
			diags[i].Allowed = true
		}
	}
	if strict {
		diags = append(diags, allows.unused(ran)...)
	}
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// scopeSet builds a Scope function matching the module root package
// exactly and each other entry as itself or any subpackage. The root
// must match exactly — a prefix match on "vmt" would swallow the whole
// module.
func scopeSet(root string, prefixes ...string) func(string) bool {
	return func(path string) bool {
		if path == root {
			return true
		}
		for _, p := range prefixes {
			if path == p || len(path) > len(p) && path[:len(p)] == p && path[len(p)] == '/' {
				return true
			}
		}
		return false
	}
}
