package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// PoolSafeAnalyzer enforces sync.Pool discipline on the pooled-buffer
// serving path: a value checked out with Get must be returned with Put
// on every path, never used after its Put, and never Put twice. The
// zero-allocation UDP loop and message encoder recycle buffers per
// packet; any of these three mistakes is either a leak (pool pressure
// returns the allocations hotpathalloc just removed) or a data race
// (two goroutines sharing one recycled buffer).
//
// The analysis is intra-procedural and flow-sensitive, on the shared
// flow walker: branches fork the tracking state and rejoin
// conservatively (a value Put on one fall-through branch but not the
// other reports nothing — only definite violations are findings).
// Ownership transfers end the obligation: returning the value, passing
// it to a go or defer call (defer pool.Put(x) and defer release(x) both
// count), sending it on a channel, storing it into a field, global,
// map, or slice, or capturing it in a function literal. Plain calls are
// borrows. Values escaping this way are the callee's responsibility;
// the analyzer tracks each function's own obligations only.
//
// A Get inside a loop must resolve its obligation within the
// iteration: a pool value still live at a continue or at the end of
// the loop body leaks once per packet, the worst possible place.
var PoolSafeAnalyzer = &Analyzer{
	Name: "poolsafe",
	Doc: "every sync.Pool Get must be Put on all paths, never used " +
		"after Put, never Put twice",
	Run: runPoolSafe,
}

// poolState is the tracking state of one Get result.
type poolState int

const (
	poolLive  poolState = iota // checked out, Put still owed
	poolPut                    // returned to the pool
	poolGone                   // ownership transferred; no local obligation
	poolMaybe                  // branches disagree; only definite bugs report
)

// poolFacts is the flow state: every tracked Get result, and the loop
// the walk is currently inside.
type poolFacts struct {
	state map[types.Object]poolState
	// loop is the body of the innermost enclosing loop, nil outside
	// one. A Get result declared inside it owes its Put before the
	// iteration ends.
	loop *ast.BlockStmt
}

func runPoolSafe(pass *Pass) {
	w := &poolWalker{pass: pass, info: pass.Info}
	fl := flow[*poolFacts]{
		clone: func(st *poolFacts) *poolFacts {
			return &poolFacts{state: maps.Clone(st.state), loop: st.loop}
		},
		visit: w.visit,
		enter: func(of ast.Stmt, st *poolFacts) {
			if body := loopBody(of); body != nil {
				st.loop = body
			}
		},
		join: w.join,
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st, exits := fl.walk(fd.Body.List, &poolFacts{state: map[types.Object]poolState{}})
			if !exits {
				w.flagLive(st)
			}
		}
	}
}

// loopBody returns the body of a for or range statement, nil for any
// other node.
func loopBody(s ast.Node) *ast.BlockStmt {
	switch s := s.(type) {
	case *ast.ForStmt:
		return s.Body
	case *ast.RangeStmt:
		return s.Body
	}
	return nil
}

// poolWalker is the analyzer's transfer function and join.
type poolWalker struct {
	pass *Pass
	info *types.Info
}

// isSyncPoolMethod reports whether call invokes the named method on a
// sync.Pool (or *sync.Pool) receiver. Shared by poolsafe and bufalias.
func isSyncPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := deref(sig.Recv().Type()).(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// isSyncPoolGet unwraps an expression that is (possibly a type
// assertion over) a (*sync.Pool).Get call.
func isSyncPoolGet(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	return ok && isSyncPoolMethod(info, call, "Get")
}

// trackedIdent resolves an expression to a tracked object, unwrapping
// parens only — derivations (slices, derefs) are uses, not the value.
func (w *poolWalker) trackedIdent(e ast.Expr, st *poolFacts) (types.Object, bool) {
	obj, _ := rootVar(w.info, e, 0)
	_, tracked := st.state[obj]
	return obj, tracked
}

// checkUses reports tracked values read after their Put.
func (w *poolWalker) checkUses(node ast.Node, st *poolFacts) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.info.Uses[id]
		if obj == nil {
			return true
		}
		if st.state[obj] == poolPut {
			w.pass.Reportf(id.Pos(),
				"%s is used after being Put back to its sync.Pool; the pool may already have handed it to another goroutine", id.Name)
			st.state[obj] = poolGone // one report per violation chain
		}
		return true
	})
}

// transferAll marks every tracked value appearing anywhere in node as
// ownership-transferred.
func (w *poolWalker) transferAll(node ast.Node, st *poolFacts) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := w.info.Uses[id]; obj != nil {
			if s, tracked := st.state[obj]; tracked && s != poolPut {
				st.state[obj] = poolGone
			}
		}
		return true
	})
}

// flagLive reports every value still owing a Put at a function exit.
func (w *poolWalker) flagLive(st *poolFacts) {
	for obj, s := range st.state {
		if s == poolLive {
			w.pass.Reportf(obj.Pos(),
				"sync.Pool Get result %s is not returned to the pool on every path; Put it (or transfer ownership) before this path exits", obj.Name())
			st.state[obj] = poolGone
		}
	}
}

// flagLoopLive reports values declared inside the loop body that are
// still owed at an iteration boundary.
func (w *poolWalker) flagLoopLive(st *poolFacts, body *ast.BlockStmt) {
	for obj, s := range st.state {
		if s == poolLive && declaredIn(obj, body) {
			w.pass.Reportf(obj.Pos(),
				"sync.Pool Get result %s leaks once per loop iteration; Put it (or transfer ownership) before the iteration ends", obj.Name())
			st.state[obj] = poolGone
		}
	}
}

// join merges the paths continuing after a statement: agreement keeps
// a value's state, disagreement degrades it to poolMaybe, and a path
// that never tracked the value has no say. Falling out of a loop body
// is an iteration boundary.
func (w *poolWalker) join(of ast.Stmt, falls []*poolFacts) *poolFacts {
	out := falls[0]
	for _, st := range falls {
		if body := loopBody(of); body != nil {
			w.flagLoopLive(st, body)
		}
		for obj, s := range st.state {
			if prev, tracked := out.state[obj]; tracked && prev != s {
				s = poolMaybe
			}
			out.state[obj] = s
		}
	}
	return out
}

// visit is the transfer function of one leaf statement or control
// expression.
func (w *poolWalker) visit(n ast.Node, st *poolFacts) {
	if call, ok := putCall(w.info, n); ok {
		if obj, tracked := w.trackedIdent(call.Args[0], st); tracked {
			switch st.state[obj] {
			case poolPut:
				w.pass.Reportf(call.Pos(),
					"%s is Put back to its sync.Pool twice; the pool may hand the same buffer to two goroutines", obj.Name())
			case poolLive, poolMaybe:
				st.state[obj] = poolPut
			}
			return
		}
	}
	w.checkUses(n, st)
	switch s := n.(type) {
	case *ast.AssignStmt:
		// New Gets: x := pool.Get().(*T).
		for i, rhs := range s.Rhs {
			if i >= len(s.Lhs) || !isSyncPoolGet(w.info, rhs) {
				continue
			}
			if obj, _ := rootVar(w.info, s.Lhs[i], 0); obj != nil && obj.Name() != "_" {
				st.state[obj] = poolLive
			}
		}
		// Stores of tracked values into fields, globals, maps, or
		// slices transfer ownership.
		for i, lhs := range s.Lhs {
			if i >= len(s.Rhs) {
				break
			}
			switch ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				w.transferAll(s.Rhs[i], st)
			}
		}
	case *ast.ExprStmt:
		// Function literals passed as arguments may retain captures.
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if lit, isLit := ast.Unparen(arg).(*ast.FuncLit); isLit {
					w.transferAll(lit, st)
				}
			}
		}
	case *ast.GoStmt:
		w.transferAll(s.Call, st)
	case *ast.DeferStmt:
		// defer pool.Put(x) / defer release(x): the obligation is
		// satisfied at every exit from here on.
		w.transferAll(s.Call, st)
	case *ast.SendStmt:
		w.transferAll(s.Value, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.transferAll(r, st)
		}
		w.flagLive(st)
	case *ast.BranchStmt:
		// A continue ends the iteration: loop-local obligations are due.
		if st.loop != nil && s.Tok == token.CONTINUE {
			w.flagLoopLive(st, st.loop)
		}
	}
}

// putCall matches the statement pool.Put(x).
func putCall(info *types.Info, n ast.Node) (*ast.CallExpr, bool) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	return call, ok && isSyncPoolMethod(info, call, "Put") && len(call.Args) == 1
}
