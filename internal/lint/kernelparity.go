package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// KernelParity turns the scalar↔SoA bit-identity invariant into a
// lint diagnostic. The PR 7 performance story rests on "the vector
// kernel is expression-for-expression identical to the scalar oracle,
// so textual identity is bit identity" (amd64 Go does not fuse or
// reassociate float operations, so an identical evaluation tree is an
// identical rounding sequence). Until now that claim was enforced by
// comments and a differential test; this analyzer enforces it
// structurally.
//
// Functions or statement regions are paired with //vmt:kernel
// directives (see directive.go). Within one package, every group names
// exactly one oracle and at least one mirror; each mirror must be
// structurally equivalent to the oracle under a name-normalizing
// comparison:
//
//   - identifiers are canonicalized: local variable `airC` in the
//     scalar and slot expression `airV[j]` in the SoA kernel both
//     serialize to the same canonical atom, numbered by first use;
//   - a region may use at most one lane-index variable (the `j` in
//     `airV[j]`), so slots cannot silently cross lanes;
//   - `x op= e`, `x++`, and `:=` desugar to their plain-assignment
//     forms, and every binary/unary expression is serialized fully
//     parenthesized, so formatting and sugar differences cannot mask
//     (or fake) a structural difference;
//   - literals compare by exact token (1.0 ≠ 1.00), constants by
//     exact value;
//   - comments and positions are ignored.
//
// The first divergent node is reported at its exact position in the
// mirror, with the oracle-side position in the message. Constructs the
// serializer does not understand are conservative errors, never
// silent passes.
var KernelParity = &Analyzer{
	Name: "kernelparity",
	Doc: "functions/regions paired via //vmt:kernel <group> <oracle|mirror> must be " +
		"structurally equivalent under name-normalizing AST comparison; reports the " +
		"exact first-divergence node so the scalar and SoA kernels provably share " +
		"one float evaluation order",
	Run: runKernelParity,
}

// kernelRegion is one //vmt:kernel-delimited region: a whole function
// body or a begin/end statement span.
type kernelRegion struct {
	group string
	role  string
	pos   token.Pos // directive position, anchor for structural diags
	stmts []ast.Stmt
}

func runKernelParity(pass *Pass) {
	var regions []kernelRegion
	for _, f := range pass.Pkg.Files {
		regions = append(regions, collectKernelRegions(pass, f)...)
	}
	groups := map[string][]kernelRegion{}
	var names []string
	for _, r := range regions {
		if _, ok := groups[r.group]; !ok {
			names = append(names, r.group)
		}
		groups[r.group] = append(groups[r.group], r)
	}
	sort.Strings(names)
	for _, name := range names {
		checkKernelGroup(pass, name, groups[name])
	}
}

// collectKernelRegions extracts every kernel region of one file:
// doc-comment whole-function regions, then begin/end statement regions
// matched to the innermost statement list that contains them.
func collectKernelRegions(pass *Pass, f *ast.File) []kernelRegion {
	var regions []kernelRegion

	// Whole-function form: //vmt:kernel <group> <role> on the doc.
	inDoc := map[*ast.Comment]bool{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			d, err := ParseKernelComment(c.Text)
			if err != nil || d.Region {
				continue
			}
			inDoc[c] = true
			if fd.Body == nil {
				pass.Reportf(c.Pos(), "vmt:kernel on a function with no body")
				continue
			}
			regions = append(regions, kernelRegion{group: d.Group, role: d.Role, pos: c.Pos(), stmts: fd.Body.List})
		}
	}

	// Region form: begin/end markers inside statement lists.
	var markers []kernelMarker
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, err := ParseKernelComment(c.Text)
			if err != nil {
				continue
			}
			if !d.Region {
				if !inDoc[c] {
					pass.Reportf(c.Pos(), "whole-function vmt:kernel directive must be a function's doc comment (use \"begin\"/\"end\" inside a body)")
				}
				continue
			}
			markers = append(markers, kernelMarker{dir: d, pos: c.Pos()})
		}
	}
	if len(markers) == 0 {
		return regions
	}
	claimed := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		var open, close token.Pos
		switch t := n.(type) {
		case *ast.BlockStmt:
			list, open, close = t.List, t.Lbrace, t.Rbrace
		case *ast.CaseClause:
			list, open, close = t.Body, t.Colon, t.End()
		case *ast.CommClause:
			list, open, close = t.Body, t.Colon, t.End()
		default:
			return true
		}
		regions = append(regions, regionsInList(pass, markers, claimed, list, open, close)...)
		return true
	})
	for i, m := range markers {
		if !claimed[i] {
			pass.Reportf(m.pos, "vmt:kernel marker outside any function body")
		}
	}
	return regions
}

type kernelMarker struct {
	dir KernelDirective
	pos token.Pos
}

// regionsInList pairs begin/end markers that sit at this statement
// list's own level (not inside one of its statements) and slices out
// the statements between each pair.
func regionsInList(pass *Pass, markers []kernelMarker, claimed map[int]bool, list []ast.Stmt, open, close token.Pos) []kernelRegion {
	atLevel := func(pos token.Pos) bool {
		if pos <= open || pos >= close {
			return false
		}
		for _, s := range list {
			if pos >= s.Pos() && pos < s.End() {
				return false
			}
		}
		return true
	}
	var regions []kernelRegion
	openIdx := -1
	for i, m := range markers {
		if !atLevel(m.pos) {
			continue
		}
		claimed[i] = true
		switch {
		case m.dir.End && openIdx < 0:
			pass.Reportf(m.pos, "vmt:kernel end without a matching begin in this block")
		case m.dir.End:
			begin := markers[openIdx]
			var stmts []ast.Stmt
			for _, s := range list {
				if s.Pos() > begin.pos && s.End() <= m.pos {
					stmts = append(stmts, s)
				}
			}
			if len(stmts) == 0 {
				pass.Reportf(begin.pos, "empty vmt:kernel region for group %q", begin.dir.Group)
			} else {
				regions = append(regions, kernelRegion{group: begin.dir.Group, role: begin.dir.Role, pos: begin.pos, stmts: stmts})
			}
			openIdx = -1
		case openIdx >= 0:
			pass.Reportf(m.pos, "vmt:kernel begin for group %q while group %q is still open (regions cannot nest in one block)", m.dir.Group, markers[openIdx].dir.Group)
		default:
			openIdx = i
		}
	}
	if openIdx >= 0 {
		pass.Reportf(markers[openIdx].pos, "unterminated vmt:kernel begin for group %q", markers[openIdx].dir.Group)
	}
	return regions
}

// checkKernelGroup validates one group's oracle/mirror structure and
// compares every mirror against the oracle.
func checkKernelGroup(pass *Pass, name string, regions []kernelRegion) {
	var oracle *kernelRegion
	var mirrors []kernelRegion
	for i := range regions {
		r := regions[i]
		if r.role == kernelRoleOracle {
			if oracle != nil {
				pass.Reportf(r.pos, "duplicate oracle for kernel group %q (first at %s)", name, pass.Pkg.Fset.Position(oracle.pos))
				continue
			}
			oracle = &regions[i]
		} else {
			mirrors = append(mirrors, r)
		}
	}
	if oracle == nil {
		for _, m := range mirrors {
			pass.Reportf(m.pos, "kernel group %q has no oracle in this package (groups are package-local)", name)
		}
		return
	}
	if len(mirrors) == 0 {
		pass.Reportf(oracle.pos, "kernel group %q has no mirror; nothing to verify against the oracle", name)
		return
	}
	oracleToks, err := serializeKernel(pass.Pkg, oracle.stmts)
	if err != nil {
		pass.Reportf(err.pos, "kernel group %q oracle: %s (mirrors unverified)", name, err.msg)
		return
	}
	for _, m := range mirrors {
		mirrorToks, err := serializeKernel(pass.Pkg, m.stmts)
		if err != nil {
			pass.Reportf(err.pos, "kernel group %q mirror: %s", name, err.msg)
			continue
		}
		compareKernel(pass, name, oracleToks, mirrorToks, m.pos)
	}
}

// compareKernel reports the first divergent token between a mirror and
// its oracle, at the mirror's exact node position.
func compareKernel(pass *Pass, name string, oracle, mirror []kpTok, mirrorPos token.Pos) {
	n := len(oracle)
	if len(mirror) < n {
		n = len(mirror)
	}
	for i := 0; i < n; i++ {
		if oracle[i].text != mirror[i].text {
			pass.Reportf(mirror[i].pos,
				"kernel group %q diverges from oracle: %s here, %s in the oracle (at %s)",
				name, kpQuote(mirror[i].text), kpQuote(oracle[i].text), pass.Pkg.Fset.Position(oracle[i].pos))
			return
		}
	}
	switch {
	case len(mirror) < len(oracle):
		pass.Reportf(mirrorPos,
			"kernel group %q mirror ends before the oracle: oracle continues with %s (at %s)",
			name, kpQuote(oracle[n].text), pass.Pkg.Fset.Position(oracle[n].pos))
	case len(mirror) > len(oracle):
		pass.Reportf(mirror[n].pos,
			"kernel group %q mirror continues past the oracle's end with %s",
			name, kpQuote(mirror[n].text))
	}
}

func kpQuote(tok string) string { return fmt.Sprintf("%q", tok) }

// kpTok is one token of a serialized kernel region: canonical text
// plus the source position it came from.
type kpTok struct {
	text string
	pos  token.Pos
}

type kpError struct {
	msg string
	pos token.Pos
}

// kpSerializer flattens a statement list into a canonical token
// stream. Variables (scalar `airC` or slot `airV[j]`) become "v%d"
// atoms numbered by first use; everything else serializes by exact
// structure.
type kpSerializer struct {
	pkg     *Package
	toks    []kpTok
	atoms   map[types.Object]string
	laneIdx types.Object
	err     *kpError
}

func serializeKernel(pkg *Package, stmts []ast.Stmt) ([]kpTok, *kpError) {
	s := &kpSerializer{pkg: pkg, atoms: map[types.Object]string{}}
	for _, st := range stmts {
		s.stmt(st)
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.toks, nil
}

func (s *kpSerializer) emit(text string, pos token.Pos) {
	if s.err == nil {
		s.toks = append(s.toks, kpTok{text: text, pos: pos})
	}
}

func (s *kpSerializer) fail(pos token.Pos, format string, args ...any) {
	if s.err == nil {
		s.err = &kpError{msg: fmt.Sprintf(format, args...), pos: pos}
	}
}

func (s *kpSerializer) objOf(id *ast.Ident) types.Object {
	if obj := s.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return s.pkg.Info.Defs[id]
}

// atom returns the canonical name of a variable slot, allocating the
// next "v%d" on first use.
func (s *kpSerializer) atom(obj types.Object) string {
	if name, ok := s.atoms[obj]; ok {
		return name
	}
	name := fmt.Sprintf("v%d", len(s.atoms)+1)
	s.atoms[obj] = name
	return name
}

func (s *kpSerializer) stmt(st ast.Stmt) {
	if s.err != nil {
		return
	}
	switch t := st.(type) {
	case *ast.AssignStmt:
		s.assign(t)
	case *ast.IncDecStmt:
		// x++ desugars to x = (x + 1).
		s.expr(t.X)
		s.emit("=", t.TokPos)
		s.emit("(", t.TokPos)
		s.expr(t.X)
		if t.Tok == token.INC {
			s.emit("+", t.TokPos)
		} else {
			s.emit("-", t.TokPos)
		}
		s.emit("INT:1", t.TokPos)
		s.emit(")", t.TokPos)
	case *ast.ExprStmt:
		s.expr(t.X)
	case *ast.BlockStmt:
		s.emit("{", t.Lbrace)
		for _, inner := range t.List {
			s.stmt(inner)
		}
		s.emit("}", t.Rbrace)
	case *ast.IfStmt:
		s.emit("if", t.If)
		if t.Init != nil {
			s.stmt(t.Init)
			s.emit(";", t.If)
		}
		s.expr(t.Cond)
		s.stmt(t.Body)
		if t.Else != nil {
			s.emit("else", t.Body.End())
			s.stmt(t.Else)
		}
	case *ast.SwitchStmt:
		s.emit("switch", t.Switch)
		if t.Init != nil {
			s.stmt(t.Init)
			s.emit(";", t.Switch)
		}
		if t.Tag != nil {
			s.expr(t.Tag)
		}
		s.stmt(t.Body)
	case *ast.CaseClause:
		if t.List == nil {
			s.emit("default", t.Case)
		} else {
			s.emit("case", t.Case)
			for i, e := range t.List {
				if i > 0 {
					s.emit(",", e.Pos())
				}
				s.expr(e)
			}
		}
		s.emit(":", t.Colon)
		for _, inner := range t.Body {
			s.stmt(inner)
		}
	case *ast.ForStmt:
		s.emit("for", t.For)
		if t.Init != nil {
			s.stmt(t.Init)
		}
		s.emit(";", t.For)
		if t.Cond != nil {
			s.expr(t.Cond)
		}
		s.emit(";", t.For)
		if t.Post != nil {
			s.stmt(t.Post)
		}
		s.stmt(t.Body)
	case *ast.RangeStmt:
		s.emit("for", t.For)
		if t.Key != nil {
			s.expr(t.Key)
			if t.Value != nil {
				s.emit(",", t.Value.Pos())
				s.expr(t.Value)
			}
			s.emit("=", t.TokPos) // := normalizes to =
		}
		s.emit("range", t.Range)
		s.expr(t.X)
		s.stmt(t.Body)
	case *ast.ReturnStmt:
		s.emit("return", t.Return)
		for i, e := range t.Results {
			if i > 0 {
				s.emit(",", e.Pos())
			}
			s.expr(e)
		}
	case *ast.BranchStmt:
		s.emit(t.Tok.String(), t.TokPos)
		if t.Label != nil {
			s.emit(t.Label.Name, t.Label.Pos())
		}
	default:
		s.fail(st.Pos(), "unsupported statement %T in kernel region", st)
	}
}

// assign serializes assignments with := and op= desugared: `x += e`
// and `x = x + e` produce identical streams, so sugar choices cannot
// mask a real difference.
func (s *kpSerializer) assign(t *ast.AssignStmt) {
	if t.Tok == token.ASSIGN || t.Tok == token.DEFINE {
		for i, e := range t.Lhs {
			if i > 0 {
				s.emit(",", e.Pos())
			}
			s.expr(e)
		}
		s.emit("=", t.TokPos)
		for i, e := range t.Rhs {
			if i > 0 {
				s.emit(",", e.Pos())
			}
			s.expr(e)
		}
		return
	}
	if len(t.Lhs) != 1 || len(t.Rhs) != 1 {
		s.fail(t.Pos(), "unsupported %s with %d targets in kernel region", t.Tok, len(t.Lhs))
		return
	}
	op, ok := kpAssignOps[t.Tok]
	if !ok {
		s.fail(t.Pos(), "unsupported assignment operator %s in kernel region", t.Tok)
		return
	}
	s.expr(t.Lhs[0])
	s.emit("=", t.TokPos)
	s.emit("(", t.TokPos)
	s.expr(t.Lhs[0])
	s.emit(op, t.TokPos)
	s.expr(t.Rhs[0])
	s.emit(")", t.TokPos)
}

var kpAssignOps = map[token.Token]string{
	token.ADD_ASSIGN: "+",
	token.SUB_ASSIGN: "-",
	token.MUL_ASSIGN: "*",
	token.QUO_ASSIGN: "/",
	token.REM_ASSIGN: "%",
}

func (s *kpSerializer) expr(e ast.Expr) {
	if s.err != nil {
		return
	}
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		s.ident(t)
	case *ast.BasicLit:
		s.emit(t.Kind.String()+":"+t.Value, t.Pos())
	case *ast.BinaryExpr:
		s.emit("(", t.Pos())
		s.expr(t.X)
		s.emit(t.Op.String(), t.OpPos)
		s.expr(t.Y)
		s.emit(")", t.Pos())
	case *ast.UnaryExpr:
		s.emit("(", t.Pos())
		s.emit(t.Op.String(), t.OpPos)
		s.expr(t.X)
		s.emit(")", t.Pos())
	case *ast.IndexExpr:
		s.index(t)
	case *ast.SelectorExpr:
		s.selector(t)
	case *ast.CallExpr:
		s.call(t)
	default:
		s.fail(e.Pos(), "unsupported expression %T in kernel region", e)
	}
}

func (s *kpSerializer) ident(t *ast.Ident) {
	obj := s.objOf(t)
	switch o := obj.(type) {
	case *types.Var:
		s.emit(s.atom(o), t.Pos())
	case *types.Const:
		s.emit("const:"+o.Val().ExactString(), t.Pos())
	case *types.Func:
		s.emit(o.FullName(), t.Pos())
	case *types.TypeName:
		s.emit(types.TypeString(o.Type(), nil), t.Pos())
	case *types.Builtin:
		s.emit(o.Name(), t.Pos())
	case nil:
		s.emit(t.Name, t.Pos()) // blank identifier
	default:
		s.fail(t.Pos(), "unsupported identifier kind %T in kernel region", obj)
	}
}

// index serializes var[lane] slot expressions as the same canonical
// atom a plain scalar variable gets — the heart of the scalar↔SoA
// comparison. Only one lane-index variable may appear in a region.
func (s *kpSerializer) index(t *ast.IndexExpr) {
	baseID, ok := ast.Unparen(t.X).(*ast.Ident)
	if ok {
		base, bok := s.objOf(baseID).(*types.Var)
		idxID, iok := ast.Unparen(t.Index).(*ast.Ident)
		if bok && iok {
			if idx, ok := s.objOf(idxID).(*types.Var); ok {
				if s.laneIdx == nil {
					s.laneIdx = idx
				}
				if s.laneIdx != idx {
					s.fail(t.Index.Pos(), "kernel region uses a second lane index %q (already using %q); slots may not cross lanes", idxID.Name, s.laneIdx.Name())
					return
				}
				s.emit(s.atom(base), t.Pos())
				return
			}
		}
	}
	s.expr(t.X)
	s.emit("[", t.Lbrack)
	s.expr(t.Index)
	s.emit("]", t.Rbrack)
}

func (s *kpSerializer) selector(t *ast.SelectorExpr) {
	if id, ok := t.X.(*ast.Ident); ok {
		if _, isPkg := s.pkg.Info.Uses[id].(*types.PkgName); isPkg {
			obj := s.pkg.Info.Uses[t.Sel]
			if c, ok := obj.(*types.Const); ok {
				s.emit("const:"+c.Val().ExactString(), t.Pos())
				return
			}
			if obj != nil && obj.Pkg() != nil {
				s.emit(obj.Pkg().Path()+"."+obj.Name(), t.Pos())
				return
			}
		}
	}
	s.expr(t.X)
	s.emit(".", t.Sel.Pos())
	s.emit(t.Sel.Name, t.Sel.Pos())
}

func (s *kpSerializer) call(t *ast.CallExpr) {
	if t.Ellipsis != token.NoPos {
		s.fail(t.Pos(), "unsupported variadic call in kernel region")
		return
	}
	fun := ast.Unparen(t.Fun)
	if tv, ok := s.pkg.Info.Types[fun]; ok && tv.IsType() {
		s.emit(types.TypeString(tv.Type, nil), fun.Pos())
	} else {
		s.expr(fun)
	}
	s.emit("(", t.Lparen)
	for i, a := range t.Args {
		if i > 0 {
			s.emit(",", a.Pos())
		}
		s.expr(a)
	}
	s.emit(")", t.Rparen)
}
