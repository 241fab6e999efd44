package lint

import (
	"go/ast"
	"go/token"
)

// GoLeakAnalyzer enforces goroutine hygiene: every go statement must
// spawn work with a reachable termination path. The scanner's worker
// pools, the obs HTTP endpoint, and the netsim servers mean the
// pipeline is permanently multi-goroutine now, and a leaked goroutine
// at 14.7 K qps scale is a memory leak with a thread attached. Two
// provably-unterminating shapes are reported:
//
//   - an unconditional `for { ... }` loop in the spawned function with
//     no way out: no return, no break or goto that leaves it, no call
//     that never returns — the goroutine can never finish, and
//     there is no cancellation case to add one (the netsim servers'
//     accept loops pass because their shutdown select returns);
//
//   - a bare blocking channel send (`ch <- v` outside any select) in
//     the spawned function: if the receiver has gone away — context
//     cancelled, early return on the consuming side — the goroutine
//     blocks forever. Wrap the send in a select with a <-ctx.Done()
//     (or done-channel) case.
//
// The spawned body is resolved through the call graph: `go s.serve()`
// is analyzed via serve's declaration, not just go func literals.
// Loops with conditions or range clauses are assumed bounded (a
// heuristic: range over a channel terminates on close, a condition is
// assumed reachable), so the analyzer under-reports rather than
// drowning real findings in noise.
var GoLeakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc: "flag go statements whose goroutine provably cannot " +
		"terminate: unconditional loops with no exit, and blocking " +
		"channel sends with no cancellation case",
	RunProject: runGoLeak,
}

func runGoLeak(pass *ProjectPass) {
	reported := map[token.Pos]bool{}
	for _, node := range pass.Project.Graph.Nodes {
		body := node.Body()
		if body == nil {
			continue
		}
		inspectOwn(body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			spawned := spawnedBody(pass.Project.Graph, node, gs)
			if spawned == nil {
				return true // external or dynamic callee: cannot analyze
			}
			checkGoroutineBody(pass, node, gs, spawned, reported)
			return true
		})
	}
}

// spawnedBody resolves the function body a go statement runs: a
// literal's own body, or the declaration of a statically resolved
// callee in the loaded packages.
func spawnedBody(g *CallGraph, node *CallNode, gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	fn := calleeFunc(node.Pkg.Info, gs.Call)
	if fn == nil {
		return nil
	}
	callee := g.FuncNode(fn)
	if callee == nil {
		return nil
	}
	return callee.Body()
}

// checkGoroutineBody applies both rules to one spawned body.
func checkGoroutineBody(pass *ProjectPass, node *CallNode, gs *ast.GoStmt, body *ast.BlockStmt, reported map[token.Pos]bool) {
	fset := node.Pkg.Fset
	goPos := fset.Position(gs.Pos())
	// A send that is a select communication clause has, by
	// construction, alternative cases (or a deliberate single-case
	// select). A literal inside the spawned body runs in its own right;
	// its own go statements are checked when its node walks.
	comms := selectComms(body)
	labels := map[*ast.ForStmt]string{}
	inspectOwn(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.LabeledStmt:
			if loop, ok := n.Stmt.(*ast.ForStmt); ok {
				labels[loop] = n.Label.Name
			}
		case *ast.ForStmt:
			if n.Cond == nil && !loopCanExit(n, labels[n]) && !reported[n.Pos()] {
				reported[n.Pos()] = true
				pass.Reportf(fset, n.Pos(),
					"unconditional loop in goroutine spawned at %s:%d has no termination path; add a return under a <-ctx.Done() or done-channel select case",
					shortPath(goPos.Filename), goPos.Line)
			}
		case *ast.SendStmt:
			if comms[n] || reported[n.Pos()] {
				return true
			}
			reported[n.Pos()] = true
			pass.Reportf(fset, n.Pos(),
				"blocking channel send in goroutine spawned at %s:%d has no cancellation case; wrap it in a select with <-ctx.Done() (or a done channel)",
				shortPath(goPos.Filename), goPos.Line)
		}
		return true
	})
}

// loopCanExit reports whether an unconditional for loop contains a
// statement that leaves it: a return, a break targeting this loop
// (unlabeled breaks inside nested for/switch/select target those
// instead), a break or goto to a label declared outside the loop body
// (it exits the loop or an ancestor, either way leaving it), or a call
// that never returns. A goto to self, the loop's own label, restarts
// the loop and does not count.
func loopCanExit(loop *ast.ForStmt, self string) bool {
	innerLabels := map[string]bool{}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if ls, ok := n.(*ast.LabeledStmt); ok {
			innerLabels[ls.Label.Name] = true
		}
		return true
	})
	exits := false
	var walk func(n ast.Node, depth int) bool
	walk = func(n ast.Node, depth int) bool {
		if exits {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // break/return inside a literal exits the literal
		case *ast.ReturnStmt:
			exits = true
		case *ast.BranchStmt:
			switch {
			case n.Tok == token.BREAK && n.Label == nil:
				exits = depth == 0
			case n.Tok == token.BREAK, n.Tok == token.GOTO && n.Label.Name != self:
				exits = !innerLabels[n.Label.Name]
			}
		case *ast.CallExpr:
			exits = neverReturns(n)
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// One breakable level deeper: unlabeled breaks inside no
			// longer target our loop.
			ast.Inspect(n, func(inner ast.Node) bool {
				if inner == n {
					return true
				}
				return walk(inner, depth+1)
			})
			return false
		}
		return !exits
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool { return walk(n, 0) })
	return exits
}
