package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detrand forbids wall-clock and ambient-entropy sources inside the
// simulation-critical packages. A Config must bit-identically determine
// a Run; `time.Now` in the sim clock or global `math/rand` in a policy
// breaks that silently — results drift between invocations without a
// single test failing until a golden fixture happens to notice.
// Randomness must come from the seeded, deterministic
// internal/stats.RNG; wall-clock readings are legitimate only in
// observational code (telemetry tracers, progress lines), which earns
// an explicit //vmtlint:allow with its justification.
//
// The check is interprocedural: entropy roots (time.Now/Since/Until,
// os.Getenv, anything in math/rand, math/rand/v2, or crypto/rand)
// taint every function and function-typed variable/field that
// transitively reaches them, across the whole module. A helper in an
// unscoped package (say telemetry) that reads the wall clock is
// diagnosed at its call site inside a scoped package, with the call
// chain in the message. Tainted helpers declared inside the scoped
// packages themselves are not re-reported at call sites — their bodies
// already carry the direct diagnostic (or its allow).
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "forbids time.Now/Since/Until, os.Getenv and math|crypto/rand — direct or " +
		"transitively reached through module helpers, method values, and function-typed " +
		"fields — in simulation-critical packages (root study code, " +
		"internal/{cluster,pcm,thermal,sched,fault}); " +
		"use the seeded internal/stats RNG and simulation time instead",
	Scope: detrandScope,
	Run:   runDetrand,
}

var detrandScope = scopeSet("vmt",
	"vmt/internal/cluster",
	"vmt/internal/pcm",
	"vmt/internal/thermal",
	"vmt/internal/sched",
	"vmt/internal/fault",
)

// detrandImports are entropy sources that have no place in
// deterministic simulation code, even transitively.
var detrandImports = map[string]string{
	"math/rand":    "global, unseeded-by-default PRNG",
	"math/rand/v2": "global, unseeded-by-default PRNG",
	"crypto/rand":  "ambient entropy",
}

// detrandTimeFuncs are the package-level time functions that read the
// wall clock.
var detrandTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runDetrand(pass *Pass) {
	var tainted map[types.Object]*taintTrace
	if l := pass.Pkg.loader; l != nil {
		tainted = l.modInfo().taintFor(pass.Pkg)
	}
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if why, ok := detrandImports[path]; ok {
				pass.Reportf(imp.Pos(),
					"import %q (%s) in deterministic simulation code; use the seeded internal/stats RNG",
					path, why)
			}
		}
		lhs := assignTargets(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := t.X.(*ast.Ident); ok {
					if pkgName, ok := pass.Pkg.Info.Uses[id].(*types.PkgName); ok {
						reportQualifiedRef(pass, t, pkgName.Imported().Path())
						// A qualified reference to a tainted helper in
						// another module package (dep.Stamp) is the
						// transitive case; stdlib members are never in
						// the taint map, so this cannot double-report
						// the direct diagnostics above.
						reportTaintedRef(pass, t.Sel, lhs, tainted)
						return false
					}
				}
			case *ast.Ident:
				reportTaintedRef(pass, t, lhs, tainted)
			}
			return true
		})
	}
}

// reportQualifiedRef handles a package-qualified selector (pkg.Name).
// The rand packages are covered by the import ban, so their members are
// not re-reported here.
func reportQualifiedRef(pass *Pass, sel *ast.SelectorExpr, pkgPath string) {
	switch pkgPath {
	case "time":
		if detrandTimeFuncs[sel.Sel.Name] {
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock in deterministic simulation code; derive timing from simulation time",
				sel.Sel.Name)
		}
	case "os":
		if sel.Sel.Name == "Getenv" {
			pass.Reportf(sel.Pos(),
				"os.Getenv reads the ambient environment in deterministic simulation code; plumb settings through Config fields")
		}
	}
}

// reportTaintedRef diagnoses a use of an entropy-tainted object: a
// function declared outside the scoped packages, a method value, or a
// function-typed variable/field assigned from a tainted function.
func reportTaintedRef(pass *Pass, id *ast.Ident, lhs map[*ast.Ident]bool, tainted map[types.Object]*taintTrace) {
	if lhs[id] {
		return
	}
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil || tainted[obj] == nil {
		return
	}
	// A tainted function declared in the analyzed package or any other
	// scoped package already carries a diagnostic (or its allow) on the
	// entropy use inside its body; re-reporting every call site would
	// just cascade the same finding.
	if _, isFunc := obj.(*types.Func); isFunc && obj.Pkg() != nil {
		declPath := obj.Pkg().Path()
		if declPath == pass.Pkg.Path || detrandScope(declPath) {
			return
		}
	}
	tr := tainted[obj]
	pass.Reportf(id.Pos(),
		"%s transitively reaches %s in deterministic simulation code (%s); derive timing and randomness from simulation state",
		objName(obj), tr.root, taintChain(obj, tainted))
}

// assignTargets collects the identifiers a file assigns into (plain
// assignments, var specs, composite-literal keys). The taint walk skips
// them: the assignment that *introduces* taint is diagnosed through its
// right-hand side, not by flagging its own target.
func assignTargets(f *ast.File) map[*ast.Ident]bool {
	targets := map[*ast.Ident]bool{}
	add := func(e ast.Expr) {
		switch t := e.(type) {
		case *ast.Ident:
			targets[t] = true
		case *ast.SelectorExpr:
			targets[t.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for _, e := range t.Lhs {
				add(e)
			}
		case *ast.CompositeLit:
			for _, elt := range t.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					add(kv.Key)
				}
			}
		}
		return true
	})
	return targets
}
