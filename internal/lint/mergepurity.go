package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MergePurityAnalyzer is the static twin of the shard-equivalence
// golden tests (TestSurveyMetricsShardMerge): a sharded survey is only
// correct if merging shard aggregates in any order produces identical
// results, so every type with a Merge method must be closed under the
// order-independence contract. Four rules per Merge method:
//
//  1. No call path from Merge to a nondeterminism source (wall clock,
//     global rand, map-order output) — checked forward over the
//     cross-package call graph, reported with the full chain.
//  2. No non-commutative float accumulation: float subtraction and
//     division make the result depend on merge order (floating-point
//     addition is already only approximately associative, which the
//     repo confines to dyadic-rational bucket sums; `-` and `/` are
//     where real divergence enters). Sums, products, and max/min via
//     comparison are the blessed forms.
//  3. No iteration-order dependence: inside a range over a map, a
//     plain assignment to state outside the loop, a string
//     concatenation, or an append of a range-dependent value all
//     record which key came last — keyed writes (m[k] += v) and
//     nested Merge calls are the order-independent forms.
//  4. Nested state must merge, not overwrite: assigning a field whose
//     type has its own Merge method discards the receiver's shard,
//     and copying a field straight from the argument
//     (recv.F = other.F) makes the last merge win — unless the copy
//     is dominated by a comparison (the max/min idiom).
//
// The waiver is the existing //repro:nondeterministic <reason> on the
// Merge declaration — order-dependence is nondeterminism under
// sharding, and the one directive keeps every sanctioned aggregate
// greppable the same way.
var MergePurityAnalyzer = &Analyzer{
	Name: "mergepurity",
	Doc: "require every Merge method to be order-independent: no " +
		"wall-clock or map-order inputs (checked over the call graph), " +
		"no non-commutative float forms, no last-write-wins field copies, " +
		"nested mergeable fields merged rather than overwritten",
	RunProject: runMergePurity,
}

func runMergePurity(pass *ProjectPass) {
	for _, node := range pass.Project.Graph.Nodes {
		if node.Func == nil || node.Decl == nil || node.Decl.Recv == nil {
			continue
		}
		if node.Func.Name() != "Merge" {
			continue
		}
		if sanctioned(node) {
			continue // //repro:nondeterministic with a reason waives
		}
		checkMergeNondet(pass, node)
		checkMergeBody(pass, node)
	}
}

// mergeEdges is what a Merge can run synchronously: a goroutine it
// spawns or a function value it hands out is not part of the fold.
var mergeEdges = Edges(EdgeCall, EdgeDefer, EdgeClosure, EdgeDynamic)

// checkMergeNondet walks forward from Merge over the call graph and
// reports the nearest reachable nondeterminism source with its chain
// (rule 1). Sanctioned nodes absorb, exactly as in determinism.
func checkMergeNondet(pass *ProjectPass, merge *CallNode) {
	reached := Reach([]*CallNode{merge}, Callees, mergeEdges, sanctioned)
	for _, n := range reached.Order {
		if src, ok := taintingSource(n); ok {
			pass.Reportf(merge.Pkg.Fset, merge.Pos(),
				"%s reaches nondeterminism source %s: %s → %s; a merge result must not depend on when or in what order shards fold, or annotate with %s <reason>",
				merge.Name(), src.desc, reached.Chain(n), src.desc, NondetDirective)
			return
		}
	}
}

// mergeObjs resolves the receiver and parameter objects of a Merge
// declaration.
func mergeObjs(node *CallNode) (recv types.Object, params map[types.Object]bool) {
	params = make(map[types.Object]bool)
	info := node.Pkg.Info
	if f := node.Decl.Recv.List; len(f) > 0 && len(f[0].Names) > 0 {
		recv = info.Defs[f[0].Names[0]]
	}
	for _, f := range node.Decl.Type.Params.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				params[obj] = true
			}
		}
	}
	return recv, params
}

// checkMergeBody enforces rules 2–4 syntactically over the Merge body
// (function literals share the scope and are walked inline).
func checkMergeBody(pass *ProjectPass, node *CallNode) {
	info := node.Pkg.Info
	recv, params := mergeObjs(node)

	// Rule 2: non-commutative float arithmetic.
	ast.Inspect(node.Body(), func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if (n.Op == token.SUB || n.Op == token.QUO) &&
				(isFloatType(info.TypeOf(n.X)) || isFloatType(info.TypeOf(n.Y))) {
				pass.Reportf(node.Pkg.Fset, n.Pos(),
					"non-commutative float arithmetic (%s) in %s: the result depends on merge order; restructure as sums, products, or max/min",
					n.Op, node.Name())
			}
		case *ast.AssignStmt:
			if (n.Tok == token.SUB_ASSIGN || n.Tok == token.QUO_ASSIGN) &&
				len(n.Lhs) == 1 && isFloatType(info.TypeOf(n.Lhs[0])) {
				pass.Reportf(node.Pkg.Fset, n.Pos(),
					"non-commutative float accumulation (%s) in %s: the result depends on merge order; restructure as sums, products, or max/min",
					n.Tok, node.Name())
			}
		}
		return true
	})

	// Rule 3: iteration-order dependence inside map ranges.
	ast.Inspect(node.Body(), func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMap(info.TypeOf(rs.X)) {
			return true
		}
		rangeVars := rangeVarObjs(info, rs)
		checkMapRangeBody(pass, node, rs, rangeVars)
		return true
	})

	// Rule 4: overwrites of mergeable or argument-copied fields.
	checkFieldOverwrites(pass, node, recv, params)
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rangeVarObjs returns the key/value loop variables of a range.
func rangeVarObjs(info *types.Info, rs *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// mentionsAny reports whether the expression uses any of the objects.
func mentionsAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	if e == nil || len(objs) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// rootIdent returns the base identifier of an lvalue chain
// (a.b.c → a, (*p).f → p), nil for indexed or otherwise keyed forms.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// checkMapRangeBody reports order-dependent writes inside one map
// range (rule 3): plain assignment or append to state declared outside
// the loop from a range-var-dependent value, and string concatenation.
func checkMapRangeBody(pass *ProjectPass, node *CallNode, rs *ast.RangeStmt, rangeVars map[types.Object]bool) {
	info := node.Pkg.Info
	loopLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if as.Tok == token.DEFINE {
			return true // loop-local temporaries are order-safe
		}
		for i, lhs := range as.Lhs {
			lhs = ast.Unparen(lhs)
			if _, keyed := lhs.(*ast.IndexExpr); keyed {
				continue // keyed writes commute across iteration orders
			}
			root := rootIdent(lhs)
			if root == nil {
				continue
			}
			obj := info.Uses[root]
			if obj == nil {
				obj = info.Defs[root]
			}
			if obj == nil || loopLocal(obj) {
				continue // blank or unresolvable lvalues hold no state
			}
			var rhs ast.Expr
			if i < len(as.Rhs) {
				rhs = as.Rhs[i]
			} else if len(as.Rhs) == 1 {
				rhs = as.Rhs[0]
			}
			switch {
			case as.Tok == token.ASSIGN && isAppendOf(info, rhs, rangeVars):
				pass.Reportf(node.Pkg.Fset, as.Pos(),
					"map-iteration-order dependence in %s: appending range-dependent values records visit order; collect and sort keys first",
					node.Name())
			case as.Tok == token.ASSIGN && mentionsAny(info, rhs, rangeVars):
				pass.Reportf(node.Pkg.Fset, as.Pos(),
					"map-iteration-order dependence in %s: the last key visited wins this assignment; use a keyed write (m[k] op= v) or a commutative fold",
					node.Name())
			case as.Tok == token.ADD_ASSIGN && isStringType(info.TypeOf(lhs)):
				pass.Reportf(node.Pkg.Fset, as.Pos(),
					"map-iteration-order dependence in %s: string concatenation inside a map range records visit order; collect and sort keys first",
					node.Name())
			}
		}
		return true
	})
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isAppendOf reports whether e is append(..., x...) with a
// range-var-dependent appended value.
func isAppendOf(info *types.Info, e ast.Expr, rangeVars map[types.Object]bool) bool {
	if builtinCall(info, e) != "append" {
		return false
	}
	call := ast.Unparen(e).(*ast.CallExpr)
	for _, arg := range call.Args[1:] {
		if mentionsAny(info, arg, rangeVars) {
			return true
		}
	}
	return false
}

// hasMergeMethod reports whether t (or *t) has a Merge method.
func hasMergeMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, base := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(base, true, nil, "Merge")
		if _, ok := obj.(*types.Func); ok {
			return true
		}
	}
	return false
}

// checkFieldOverwrites enforces rule 4 on the shared flow walker. The
// state is one fact: whether the current path is dominated by a
// comparison that mentions the Merge argument (the max/min idiom) —
// inside either branch of such an if, or after it when its body exits.
func checkFieldOverwrites(pass *ProjectPass, node *CallNode, recv types.Object, params map[types.Object]bool) {
	info := node.Pkg.Info
	fl := flow[*bool]{
		clone: func(guarded *bool) *bool { g := *guarded; return &g },
		visit: func(n ast.Node, guarded *bool) {
			s, ok := n.(*ast.AssignStmt)
			if !ok || s.Tok != token.ASSIGN {
				return
			}
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if i < len(s.Rhs) {
					rhs = s.Rhs[i]
				}
				checkOneOverwrite(pass, node, recv, params, ast.Unparen(lhs), rhs, *guarded)
			}
		},
		enter: func(of ast.Stmt, guarded *bool) {
			if s, ok := of.(*ast.IfStmt); ok && mentionsAny(info, s.Cond, params) {
				*guarded = true
			}
		},
	}
	fl.walk(node.Body().List, new(bool))
}

// checkOneOverwrite judges a single lhs = rhs against rule 4.
func checkOneOverwrite(pass *ProjectPass, node *CallNode, recv types.Object, params map[types.Object]bool, lhs, rhs ast.Expr, guarded bool) {
	info := node.Pkg.Info

	// *recv = *param: wholesale overwrite of the receiver's shard.
	if star, ok := lhs.(*ast.StarExpr); ok {
		if root := rootIdent(star.X); root != nil && info.Uses[root] == recv {
			if rstar, ok := ast.Unparen(rhs).(*ast.StarExpr); ok {
				if rroot := rootIdent(rstar.X); rroot != nil && params[info.Uses[rroot]] {
					pass.Reportf(node.Pkg.Fset, lhs.Pos(),
						"%s overwrites the whole receiver with the argument: the merge keeps only the last shard; fold both sides instead", node.Name())
				}
			}
		}
		return
	}

	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	root := rootIdent(sel.X)
	if root == nil || recv == nil || info.Uses[root] != recv {
		return
	}

	// A field with its own Merge must be merged, not assigned.
	if hasMergeMethod(info.TypeOf(lhs)) {
		pass.Reportf(node.Pkg.Fset, lhs.Pos(),
			"%s assigns field %s whose type has its own Merge method: the receiver's shard of %s is discarded; call %s.Merge instead",
			node.Name(), sel.Sel.Name, sel.Sel.Name, sel.Sel.Name)
		return
	}

	// recv.F = param.F outside a comparison: last merge wins.
	if guarded {
		return
	}
	if rsel, ok := ast.Unparen(rhs).(*ast.SelectorExpr); ok && rsel.Sel.Name == sel.Sel.Name {
		if rroot := rootIdent(rsel.X); rroot != nil && params[info.Uses[rroot]] {
			pass.Reportf(node.Pkg.Fset, lhs.Pos(),
				"%s copies field %s straight from the argument: the last shard merged wins; fold commutatively or guard with a comparison (max/min)",
				node.Name(), sel.Sel.Name)
		}
	}
}
