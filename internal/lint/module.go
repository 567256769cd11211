package lint

// Module-wide semantic facts. The per-package analyzers of PR 4–7 saw
// one type-checked package at a time; the interprocedural checks
// (detrand's taint pass, hotpath's call discipline) need facts about
// the packages a file's identifiers resolve into. moduleInfo hangs off
// the Loader — which already memoizes every package it type-checks,
// including the module-local import closure of whatever is being
// linted — and lazily builds two indexes per loaded package:
//
//   - directive facts: which functions carry //vmt:hotpath, keyed by
//     their types.Object so a thermal call site can ask about a pcm
//     callee;
//   - taint facts: which functions and function-typed variables/fields
//     transitively reach an entropy root (wall clock, PRNG,
//     environment).
//
// Known limitation, by design: taint does not flow through function
// parameters or interface dispatch — a helper that *receives* a
// tainted func value is judged at the call site that passed it, where
// the reference to the tainted function is visible and diagnosed.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// moduleInfo is the loader's lazily built cross-package fact store.
type moduleInfo struct {
	l     *Loader
	facts map[*Package]*pkgFacts
	taint map[*Package]map[types.Object]*taintTrace
}

func (l *Loader) modInfo() *moduleInfo {
	if l.mod == nil {
		l.mod = &moduleInfo{
			l:     l,
			facts: map[*Package]*pkgFacts{},
			taint: map[*Package]map[types.Object]*taintTrace{},
		}
	}
	return l.mod
}

// pkgFacts are the per-package ingredients of the module-wide passes.
type pkgFacts struct {
	// hotpath maps a function object to its //vmt:hotpath-annotated
	// declaration.
	hotpath map[types.Object]*ast.FuncDecl
	// funcs lists every function/method declaration with a body, in
	// file order (deterministic fixpoint iteration order).
	funcs []funcFact
	// assigns lists every assignment into a function-typed variable or
	// struct field, in file order. These are the taint edges that cover
	// method values and func-typed fields.
	assigns []assignFact
}

type funcFact struct {
	obj  types.Object
	body *ast.BlockStmt
	pkg  *Package
}

type assignFact struct {
	obj types.Object // the function-typed variable or field assigned
	rhs ast.Expr
	pkg *Package
}

// factsFor builds (memoized) the directive and call-graph facts of one
// loaded package.
func (m *moduleInfo) factsFor(pkg *Package) *pkgFacts {
	if f, ok := m.facts[pkg]; ok {
		return f
	}
	f := &pkgFacts{hotpath: map[types.Object]*ast.FuncDecl{}}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if fd.Body != nil {
				f.funcs = append(f.funcs, funcFact{obj: obj, body: fd.Body, pkg: pkg})
			}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if ParseHotpathComment(c.Text) == nil {
						f.hotpath[obj] = fd
					}
				}
			}
		}
		collectAssignFacts(pkg, file, f)
	}
	m.facts[pkg] = f
	return f
}

// collectAssignFacts records every assignment whose target is a
// function-typed variable or struct field: plain assignments,
// short declarations, var specs, and keyed struct literals.
func collectAssignFacts(pkg *Package, file *ast.File, f *pkgFacts) {
	addTarget := func(lhs ast.Expr, rhs ast.Expr) {
		var obj types.Object
		switch t := lhs.(type) {
		case *ast.Ident:
			obj = pkg.Info.Defs[t]
			if obj == nil {
				obj = pkg.Info.Uses[t]
			}
		case *ast.SelectorExpr:
			obj = pkg.Info.Uses[t.Sel]
		}
		if obj == nil || rhs == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Signature); !ok {
			return
		}
		f.assigns = append(f.assigns, assignFact{obj: obj, rhs: rhs, pkg: pkg})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			if len(t.Lhs) == len(t.Rhs) {
				for i := range t.Lhs {
					addTarget(t.Lhs[i], t.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(t.Names) == len(t.Values) {
				for i := range t.Names {
					addTarget(t.Names[i], t.Values[i])
				}
			}
		case *ast.CompositeLit:
			for _, elt := range t.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						addTarget(key, kv.Value)
					}
				}
			}
		}
		return true
	})
}

// hotpathDecl returns the //vmt:hotpath declaration of obj, looking in
// whatever package the loader has for obj's package path.
func (m *moduleInfo) hotpathDecl(obj types.Object) *ast.FuncDecl {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	pkg, ok := m.l.pkgs[obj.Pkg().Path()]
	if !ok {
		return nil
	}
	return m.factsFor(pkg).hotpath[obj]
}

// known reports whether the loader holds (has type-checked) the
// package with the given import path — module packages and loaded
// fixtures alike.
func (m *moduleInfo) known(path string) bool {
	_, ok := m.l.pkgs[path]
	return ok
}

// A taintTrace explains why an object is entropy-tainted: root is the
// entropy source's qualified name, via the next hop toward it (nil
// when the object references the root directly).
type taintTrace struct {
	root string
	via  types.Object
}

// entropyRoot classifies obj as an entropy source, returning its
// qualified name ("time.Now") and whether it is one. The roots are the
// wall clock (time.Now/Since/Until), the environment (os.Getenv), and
// anything at all out of the rand packages.
func entropyRoot(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	path, name := obj.Pkg().Path(), obj.Name()
	switch path {
	case "time":
		if _, ok := obj.(*types.Func); ok && (name == "Now" || name == "Since" || name == "Until") {
			return "time." + name, true
		}
	case "os":
		if name == "Getenv" {
			return "os.Getenv", true
		}
	case "math/rand", "math/rand/v2", "crypto/rand":
		return path + "." + name, true
	}
	return "", false
}

// taintFor computes (memoized) the entropy-tainted objects reachable
// from pkg: its own declarations plus those of every loader-known
// package in its import closure. The fixpoint propagates taint along
// two edge kinds:
//
//   - a function is tainted when its body references an entropy root
//     or a tainted object (closure literals inside the body count —
//     a nested func() { time.Now() } taints the enclosing function);
//   - a function-typed variable or field is tainted when it is
//     assigned an expression referencing an entropy root or tainted
//     object. Closure-literal bodies are excluded on this edge: the
//     literal's entropy is already diagnosed inside the literal (or
//     taints its enclosing function), and re-propagating it through
//     the variable would double-report every call site.
func (m *moduleInfo) taintFor(pkg *Package) map[types.Object]*taintTrace {
	if t, ok := m.taint[pkg]; ok {
		return t
	}
	closure := m.importClosure(pkg)
	var funcs []funcFact
	var assigns []assignFact
	for _, p := range closure {
		f := m.factsFor(p)
		funcs = append(funcs, f.funcs...)
		assigns = append(assigns, f.assigns...)
	}
	tainted := map[types.Object]*taintTrace{}
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if tainted[fn.obj] != nil {
				continue
			}
			if tr := findTaintedRef(fn.pkg, fn.body, tainted, false); tr != nil {
				tainted[fn.obj] = tr
				changed = true
			}
		}
		for _, as := range assigns {
			if tainted[as.obj] != nil {
				continue
			}
			if tr := findTaintedRef(as.pkg, as.rhs, tainted, true); tr != nil {
				tainted[as.obj] = tr
				changed = true
			}
		}
	}
	m.taint[pkg] = tainted
	return tainted
}

// findTaintedRef walks n for the first identifier resolving to an
// entropy root or an already-tainted object, returning the trace to
// record (nil if none). skipFuncLits excludes closure-literal bodies
// (the variable-assignment edge).
func findTaintedRef(pkg *Package, n ast.Node, tainted map[types.Object]*taintTrace, skipFuncLits bool) *taintTrace {
	var found *taintTrace
	ast.Inspect(n, func(node ast.Node) bool {
		if found != nil {
			return false
		}
		if skipFuncLits {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if root, ok := entropyRoot(obj); ok {
			found = &taintTrace{root: root}
			return false
		}
		if tr := tainted[obj]; tr != nil {
			found = &taintTrace{root: tr.root, via: obj}
			return false
		}
		return true
	})
	return found
}

// taintChain renders the path from obj to its entropy root:
// "telemetry.Band.Begin → time.Now".
func taintChain(obj types.Object, tainted map[types.Object]*taintTrace) string {
	var parts []string
	seen := map[types.Object]bool{}
	for obj != nil && !seen[obj] {
		seen[obj] = true
		parts = append(parts, objName(obj))
		tr := tainted[obj]
		if tr == nil {
			break
		}
		if tr.via == nil {
			parts = append(parts, tr.root)
			break
		}
		obj = tr.via
	}
	return strings.Join(parts, " → ")
}

// objName renders an object for diagnostics: package-qualified, with
// the module path stripped to keep messages readable.
func objName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return shortPkgPath(fn.Pkg().Path()) + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
		return shortPkgPath(fn.Pkg().Path()) + "." + fn.Name()
	}
	if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		return shortPkgPath(obj.Pkg().Path()) + "." + obj.Name()
	}
	return obj.Name()
}

// shortPkgPath trims an import path to its last element ("telemetry"
// for "vmt/internal/telemetry") — diagnostics name files anyway, so
// the full path is noise.
func shortPkgPath(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// importClosure returns pkg plus every loader-known package reachable
// through its imports, deterministically ordered (pkg first, then
// dependencies sorted by path).
func (m *moduleInfo) importClosure(pkg *Package) []*Package {
	seen := map[string]bool{pkg.Path: true}
	var deps []string
	var walk func(p *Package)
	walk = func(p *Package) {
		for _, file := range p.Files {
			for _, imp := range file.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if seen[ip] {
					continue
				}
				seen[ip] = true
				dep, ok := m.l.pkgs[ip]
				if !ok {
					continue
				}
				deps = append(deps, ip)
				walk(dep)
			}
		}
	}
	walk(pkg)
	sort.Strings(deps)
	closure := []*Package{pkg}
	for _, ip := range deps {
		closure = append(closure, m.l.pkgs[ip])
	}
	return closure
}
