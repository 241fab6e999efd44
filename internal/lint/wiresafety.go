package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// WireSafetyAnalyzer flags indexing and slicing of []byte wire buffers
// that is not dominated by a bounds guard. The DNS wire codec and the
// NSEC3 hash layer parse attacker-controlled bytes; a single unguarded
// read is a remote panic at measurement scale, exactly the parser
// robustness class the NSEC3 CPU-exhaustion literature exploits.
//
// An index b[i] or slice b[i:j] of a []byte value is accepted when one
// of these holds (the bounds-check idiom this codebase uses):
//
//   - a dominating if/for condition mentions len(b) — either guarding
//     the access inside its body, or an early-exit guard (a body ending
//     in return/break/continue/panic) earlier in the same block;
//   - b is a field x.f and a dominating condition compares other
//     cursor fields of the same receiver x (the decoder's
//     "d.off+n > d.end" idiom, where d.end is pinned to len(d.msg));
//   - the bound is derived from len(b) in a visible assignment
//     (lenOff := len(e.buf); e.buf[lenOff] = ...), or mentions len(b)
//     directly;
//   - the access is inside a "for ... range b" loop over b itself;
//   - every explicit slice bound is the constant 0 (b[:0] resets).
//
// Constant indexes such as b[0] are deliberately NOT accepted without a
// guard: on truncated input they are exactly the panics fuzzing finds.
// Arrays and strings are out of scope (fixed-size or guarded by the
// string iteration idiom); only []byte — the wire buffer type — is
// checked.
var WireSafetyAnalyzer = &Analyzer{
	Name: "wiresafety",
	Doc: "flag indexing/slicing of []byte wire buffers not dominated " +
		"by a len() bounds guard in the wire codec packages",
	Packages: []string{"internal/dnswire", "internal/nsec3"},
	Run:      runWireSafety,
}

func runWireSafety(pass *Pass) {
	w := &wireWalker{pass: pass}
	w.flow = flow[*guardEnv]{clone: (*guardEnv).clone, visit: w.visit, enter: w.enter}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.flow.walk(fd.Body.List, newGuardEnv())
			}
		}
	}
}

// guardEnv is the set of bounds facts established by the statements
// dominating the current program point.
type guardEnv struct {
	// guarded holds base-expression keys ("msg", "d.msg") and receiver
	// keys ("recv:d") for which a dominating condition established a
	// bound.
	guarded map[string]bool
	// lenDerived maps a base expression to the set of local variable
	// names assigned from an expression involving len(base).
	lenDerived map[string]map[string]bool
}

func newGuardEnv() *guardEnv {
	return &guardEnv{guarded: map[string]bool{}, lenDerived: map[string]map[string]bool{}}
}

func (e *guardEnv) clone() *guardEnv {
	c := newGuardEnv()
	for k := range e.guarded {
		c.guarded[k] = true
	}
	for base, vars := range e.lenDerived {
		m := map[string]bool{}
		for v := range vars {
			m[v] = true
		}
		c.lenDerived[base] = m
	}
	return c
}

// wireWalker is the analyzer's transfer function over the shared flow
// walker. The walker supplies dominance: facts entered on a branch stay
// in it, and the facts of an early-exit if (a body ending in
// return/break/continue/panic) extend to the rest of the list, which is
// how the codec's "if off >= len(msg) { return err }" idiom dominates
// the reads below it.
type wireWalker struct {
	pass *Pass
	flow flow[*guardEnv]
}

// enter records what a condition or range clause establishes for the
// branch it governs.
func (w *wireWalker) enter(of ast.Stmt, env *guardEnv) {
	var cond ast.Expr
	switch s := of.(type) {
	case *ast.IfStmt:
		cond = s.Cond
	case *ast.ForStmt:
		cond = s.Cond
	case *ast.RangeStmt:
		if isByteSlice(w.pass.Info.TypeOf(s.X)) {
			env.guarded[exprString(s.X)] = true
		}
	}
	if cond != nil {
		for _, key := range w.condGuards(cond) {
			env.guarded[key] = true
		}
	}
}

// visit checks every index and slice expression under n, then records
// the variables an assignment or declaration pins to len(base) for some
// []byte base.
func (w *wireWalker) visit(n ast.Node, env *guardEnv) {
	w.checkExpr(n, env)
	derive := func(name *ast.Ident, value ast.Expr) {
		for _, base := range w.lenBases(value, env) {
			if env.lenDerived[base] == nil {
				env.lenDerived[base] = map[string]bool{}
			}
			env.lenDerived[base][name.Name] = true
		}
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" && len(s.Lhs) == len(s.Rhs) {
				derive(id, s.Rhs[i])
			}
		}
	case *ast.DeclStmt:
		for _, spec := range s.Decl.(*ast.GenDecl).Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
				for i, name := range vs.Names {
					derive(name, vs.Values[i])
				}
			}
		}
	}
}

// lenBases returns the []byte bases whose length the expression is
// derived from: len(base) calls and identifiers already marked derived.
func (w *wireWalker) lenBases(expr ast.Expr, env *guardEnv) []string {
	var bases []string
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if builtinCall(w.pass.Info, n) == "len" && isByteSlice(w.pass.Info.TypeOf(n.Args[0])) {
				bases = append(bases, exprString(n.Args[0]))
			}
		case *ast.Ident:
			for base, vars := range env.lenDerived {
				if vars[n.Name] {
					bases = append(bases, base)
				}
			}
		}
		return true
	})
	return bases
}

// checkExpr inspects a node for index/slice expressions over []byte and
// reports any not justified by the current guard environment. Function
// literals are walked with a snapshot of the environment.
func (w *wireWalker) checkExpr(node ast.Node, env *guardEnv) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.flow.walk(n.Body.List, env.clone())
			return false
		case *ast.IndexExpr:
			if isByteSlice(w.pass.Info.TypeOf(n.X)) && !w.indexSafe(n.X, n.Index, env) {
				w.pass.Reportf(n.Pos(), "index of wire buffer %s is not dominated by a len(%s) bounds guard", exprString(n.X), exprString(n.X))
			}
		case *ast.SliceExpr:
			if !isByteSlice(w.pass.Info.TypeOf(n.X)) {
				return true
			}
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				if bound != nil && !w.sliceBoundSafe(n.X, bound, env) {
					w.pass.Reportf(n.Pos(), "slice of wire buffer %s is not dominated by a len(%s) bounds guard", exprString(n.X), exprString(n.X))
					break
				}
			}
		}
		return true
	})
}

// baseGuarded reports whether the buffer expression itself is covered
// by a dominating guard.
func (w *wireWalker) baseGuarded(base ast.Expr, env *guardEnv) bool {
	key := exprString(base)
	if env.guarded[key] {
		return true
	}
	if sel, ok := ast.Unparen(base).(*ast.SelectorExpr); ok {
		if env.guarded["recv:"+exprString(sel.X)] {
			return true
		}
	}
	return false
}

// indexSafe reports whether base[idx] is acceptably guarded.
func (w *wireWalker) indexSafe(base, idx ast.Expr, env *guardEnv) bool {
	if w.baseGuarded(base, env) {
		return true
	}
	return w.boundMentionsLen(base, idx, env)
}

// sliceBoundSafe reports whether one explicit bound of base[lo:hi] is
// acceptably guarded. The constant 0 is always in bounds for a slice.
func (w *wireWalker) sliceBoundSafe(base, bound ast.Expr, env *guardEnv) bool {
	if tv, ok := w.pass.Info.Types[bound]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
			return true
		}
	}
	if w.baseGuarded(base, env) {
		return true
	}
	return w.boundMentionsLen(base, bound, env)
}

// boundMentionsLen reports whether the bound expression is pinned to
// len(base): it contains len(base) directly or a variable recorded as
// derived from it.
func (w *wireWalker) boundMentionsLen(base, bound ast.Expr, env *guardEnv) bool {
	baseKey := exprString(base)
	for _, b := range w.lenBases(bound, env) {
		if b == baseKey {
			return true
		}
	}
	return false
}

// condGuards extracts the guard keys established by a condition:
// the argument of every len(...) call over a []byte, and the receiver
// of every field selection (the decoder-cursor idiom).
func (w *wireWalker) condGuards(cond ast.Expr) []string {
	var keys []string
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if builtinCall(w.pass.Info, n) == "len" {
				keys = append(keys, exprString(n.Args[0]))
			}
		case *ast.SelectorExpr:
			// Only value fields, not method calls or package selectors.
			if sel, ok := w.pass.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				keys = append(keys, "recv:"+exprString(n.X))
			}
		}
		return true
	})
	return keys
}
