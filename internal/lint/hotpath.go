package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath enforces the allocation discipline of //vmt:hotpath
// functions: the per-tick kernels (Fleet.StepRange, stepLanes,
// Node.Step), the estimator pass, and the scheduler group scans. The
// PR 2/PR 7 performance story depends on these staying zero-alloc in
// steady state; that property is currently guarded by benchmarks,
// which notice a regression but cannot name the construct that caused
// it. This analyzer bans the alloc-prone constructs statically:
//
//   - closure literals and go/defer statements;
//   - map and slice composite literals, and the make/new/append
//     builtins (fixed-size arrays and struct literals are fine);
//   - string concatenation and any call into fmt;
//   - implicit or explicit conversions to interface types (boxing);
//   - function/method values used as values (capturing may allocate);
//   - calls to static callees that are not themselves //vmt:hotpath,
//     except a small allowlist of known-inlined leaves (the math
//     package, time.Duration's arithmetic methods) and the alloc-free
//     builtins (len/cap/copy/min/max).
//
// Dynamic calls — through func-typed variables, parameters, fields, or
// interface methods — are permitted: they are how the kernels take
// injected behavior, and the injected value's own body is checked
// wherever it is declared. Error paths that genuinely must allocate
// (fmt.Errorf on a bounds violation) carry a //vmtlint:allow hotpath
// with the justification that they are off the steady-state path.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //vmt:hotpath must be statically free of alloc-prone " +
		"constructs: closures, defer/go, map/slice literals, make/new/append, fmt and " +
		"string concatenation, interface conversions, escaping function values, and " +
		"calls to non-hotpath static callees off the known-inlined allowlist",
	Run: runHotpath,
}

// hotpathBuiltins are the builtins that never allocate.
var hotpathBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "min": true, "max": true,
}

func runHotpath(pass *Pass) {
	l := pass.Pkg.loader
	if l == nil {
		return
	}
	facts := l.modInfo().factsFor(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Pkg.Info.Defs[fd.Name]; obj != nil && facts.hotpath[obj] != nil {
				checkHotpathBody(pass, fd)
			}
		}
	}
}

// hotpathCheck carries one function's walk.
type hotpathCheck struct {
	pass *Pass
	// funIdents are identifiers appearing in call position; the
	// function-value check skips them.
	funIdents map[*ast.Ident]bool
	// flaggedArgs are the argument expressions of calls already
	// diagnosed; interface-conversion checks skip them to avoid
	// piling three findings onto one fmt.Errorf.
	flaggedArgs map[ast.Expr]bool
	// results are the enclosing function's result types, for checking
	// return statements against interface results.
	results []types.Type
}

func checkHotpathBody(pass *Pass, fd *ast.FuncDecl) {
	c := &hotpathCheck{
		pass:        pass,
		funIdents:   map[*ast.Ident]bool{},
		flaggedArgs: map[ast.Expr]bool{},
	}
	if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
		sig := obj.Type().(*types.Signature)
		for i := 0; i < sig.Results().Len(); i++ {
			c.results = append(c.results, sig.Results().At(i).Type())
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			c.funIdents[fun] = true
		case *ast.SelectorExpr:
			c.funIdents[fun.Sel] = true
		}
		return true
	})
	ast.Inspect(fd.Body, c.visit)
}

func (c *hotpathCheck) visit(n ast.Node) bool {
	switch t := n.(type) {
	case *ast.FuncLit:
		c.pass.Reportf(t.Pos(), "closure literal in hotpath (captured variables allocate)")
		return false
	case *ast.DeferStmt:
		c.pass.Reportf(t.Pos(), "defer in hotpath (allocates a defer record per call)")
	case *ast.GoStmt:
		c.pass.Reportf(t.Pos(), "go statement in hotpath (spawning allocates)")
	case *ast.CompositeLit:
		c.checkCompositeLit(t)
	case *ast.CallExpr:
		c.checkCall(t)
	case *ast.BinaryExpr:
		if t.Op == token.ADD && c.isString(t) {
			c.pass.Reportf(t.Pos(), "string concatenation in hotpath (allocates)")
		}
	case *ast.AssignStmt:
		if t.Tok == token.ADD_ASSIGN && len(t.Lhs) == 1 && c.isString(t.Lhs[0]) {
			c.pass.Reportf(t.Pos(), "string concatenation in hotpath (allocates)")
		}
		if len(t.Lhs) == len(t.Rhs) {
			for i := range t.Lhs {
				c.checkConversion(t.Rhs[i], c.typeOf(t.Lhs[i]), "assignment")
			}
		}
	case *ast.ValueSpec:
		if len(t.Names) == len(t.Values) {
			for i := range t.Names {
				c.checkConversion(t.Values[i], c.typeOf(t.Names[i]), "assignment")
			}
		}
	case *ast.ReturnStmt:
		if len(t.Results) == len(c.results) {
			for i, e := range t.Results {
				c.checkConversion(e, c.results[i], "return")
			}
		}
	case *ast.Ident:
		c.checkFuncValue(t)
	}
	return true
}

func (c *hotpathCheck) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pass.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	// Assignment targets that are plain identifiers may only be in
	// Defs/Uses, not Types.
	if id, ok := e.(*ast.Ident); ok {
		if obj := c.pass.Pkg.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := c.pass.Pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func (c *hotpathCheck) isString(e ast.Expr) bool {
	t := c.typeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (c *hotpathCheck) checkCompositeLit(lit *ast.CompositeLit) {
	tv, ok := c.pass.Pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		c.pass.Reportf(lit.Pos(), "map composite literal in hotpath (allocates)")
	case *types.Slice:
		c.pass.Reportf(lit.Pos(), "slice composite literal in hotpath (allocates)")
	}
}

// checkCall classifies one call: conversion, builtin, static, or
// dynamic — flagging the banned kinds and checking interface boxing of
// the arguments of calls that survive.
func (c *hotpathCheck) checkCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := c.pass.Pkg.Info.Types[fun]; ok && tv.IsType() {
		// Explicit conversion T(x): fine unless T is an interface.
		if len(call.Args) == 1 {
			c.checkConversion(call.Args[0], tv.Type, "conversion")
		}
		return
	}
	obj := c.calleeObject(fun)
	if b, ok := obj.(*types.Builtin); ok {
		if !hotpathBuiltins[b.Name()] {
			c.flagCall(call, "call to builtin %s in hotpath (allocates)", b.Name())
		}
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		// Dynamic: through a func-typed variable, parameter, field, or
		// a computed expression. The callee's body is checked where it
		// is declared.
		c.checkCallArgs(call)
		return
	}
	if c.staticCalleeOK(fn) {
		c.checkCallArgs(call)
		return
	}
	c.flagCall(call, "call to non-hotpath function %s in hotpath (mark it //vmt:hotpath or hoist it off the hot path)", objName(fn))
}

// flagCall reports a call and exempts its arguments from the
// conversion checks — one finding per banned call, not one per boxed
// argument.
func (c *hotpathCheck) flagCall(call *ast.CallExpr, format string, args ...any) {
	c.pass.Reportf(call.Pos(), format, args...)
	for _, a := range call.Args {
		c.flaggedArgs[a] = true
	}
}

func (c *hotpathCheck) calleeObject(fun ast.Expr) types.Object {
	switch t := fun.(type) {
	case *ast.Ident:
		return c.pass.Pkg.Info.Uses[t]
	case *ast.SelectorExpr:
		return c.pass.Pkg.Info.Uses[t.Sel]
	}
	return nil
}

// staticCalleeOK reports whether a hotpath function may call fn:
// interface methods (dynamic dispatch, checked at the implementation),
// module-local functions marked //vmt:hotpath, and the external
// known-inlined allowlist — all of package math, and time.Duration's
// pure-arithmetic methods.
func (c *hotpathCheck) staticCalleeOK(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		if types.IsInterface(recv.Type()) {
			return true
		}
		if named, ok := recv.Type().(*types.Named); ok {
			if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Duration" {
				return true
			}
		}
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return true // error.Error and friends
	}
	mi := c.pass.Pkg.loader.modInfo()
	if mi.known(pkg.Path()) {
		return mi.hotpathDecl(fn) != nil
	}
	return pkg.Path() == "math"
}

func (c *hotpathCheck) checkCallArgs(call *ast.CallExpr) {
	sig, ok := c.pass.Pkg.Info.Types[ast.Unparen(call.Fun)].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		default:
			pt = params.At(params.Len() - 1).Type()
		}
		c.checkConversion(arg, pt, "argument")
	}
}

// checkConversion flags expr when assigning/passing/returning it as
// `to` boxes a concrete value into an interface. nil and
// interface-to-interface conversions don't allocate and are exempt.
func (c *hotpathCheck) checkConversion(expr ast.Expr, to types.Type, context string) {
	if to == nil || !types.IsInterface(to) || c.flaggedArgs[expr] {
		return
	}
	tv, ok := c.pass.Pkg.Info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() || types.IsInterface(tv.Type) {
		return
	}
	c.pass.Reportf(expr.Pos(),
		"%s converts %s to interface %s in hotpath (boxing allocates)",
		context, tv.Type.String(), to.String())
}

// checkFuncValue flags a function or method used as a value rather
// than called — capturing a method value allocates its receiver
// binding.
func (c *hotpathCheck) checkFuncValue(id *ast.Ident) {
	if c.funIdents[id] {
		return
	}
	if fn, ok := c.pass.Pkg.Info.Uses[id].(*types.Func); ok {
		c.pass.Reportf(id.Pos(), "function value %s escapes in hotpath (capturing may allocate)", objName(fn))
	}
}
