package lint

import "go/ast"

// flow is the statement-flow walker wiresafety tracks its len guards
// on. It owns the enumeration of Go's compound statements — which
// sub-statements and control expressions each has, which of them run on
// a branch of their own, and which branches fall through to the next
// statement — and threads an analyzer-defined state S along every path.
// An analyzer supplies only what its facts mean: how a leaf changes the
// state (visit) and what entering a branch establishes (enter). Where
// several paths continue after a statement, branch-local facts are
// dropped. The walker never asks who is calling.
//
// S must behave like a reference (a map or pointer): hooks update it in
// place, and clone makes the independent copy a branch gets.
type flow[S any] struct {
	// clone copies the state for a branch, so that what one branch
	// learns or consumes is invisible in its siblings.
	clone func(S) S
	// visit is the transfer function. n is either a leaf statement
	// (assignment, call, return, send, go, defer, declaration, …;
	// including the Init/Post/Assign/Comm statements of compound ones)
	// or an expression in control position: an if or for condition, a
	// range operand, a switch tag, a case expression.
	visit func(n ast.Node, s S)
	// enter, when set, runs on the fresh state of a branch of the
	// compound statement of — an if body or else, a loop body, a case
	// or comm clause — to record what taking that branch establishes.
	// For a loop it runs after Init and Cond were visited.
	enter func(of ast.Stmt, s S)
}

// walk runs a statement list in order from state s. It returns the
// state after the list and whether the list exits — control cannot fall
// out of its end. Statements after an exiting one are dead and skipped.
func (f *flow[S]) walk(list []ast.Stmt, s S) (S, bool) {
	for _, stmt := range list {
		var exits bool
		if s, exits = f.stmt(stmt, s); exits {
			return s, true
		}
	}
	return s, false
}

// branch returns the state control enters a branch of of with.
func (f *flow[S]) branch(of ast.Stmt, s S) S {
	b := f.clone(s)
	if f.enter != nil {
		f.enter(of, b)
	}
	return b
}

// leaf visits an optional simple statement or control expression.
func (f *flow[S]) leaf(n ast.Node, s S) {
	if n != nil {
		f.visit(n, s)
	}
}

func (f *flow[S]) stmt(stmt ast.Stmt, s S) (S, bool) {
	// falls collects the state of every path that continues after stmt.
	var falls []S
	fall := func(b S, exits bool) {
		if !exits {
			falls = append(falls, b)
		}
	}
	// clauses walks switch and select clauses, each on its own branch.
	// A switch with no default may skip them all; a select may not.
	clauses := func(body *ast.BlockStmt, mayskip bool) {
		for _, c := range body.List {
			switch c := c.(type) {
			case *ast.CaseClause:
				mayskip = mayskip && c.List != nil
				for _, e := range c.List {
					f.visit(e, s)
				}
				fall(f.walk(c.Body, f.branch(stmt, s)))
			case *ast.CommClause:
				b := f.branch(stmt, s)
				f.leaf(c.Comm, b)
				fall(f.walk(c.Body, b))
			}
		}
		if mayskip {
			fall(s, false)
		}
	}

	switch n := stmt.(type) {
	case *ast.BlockStmt:
		return f.walk(n.List, s)
	case *ast.LabeledStmt:
		return f.stmt(n.Stmt, s)
	case *ast.IfStmt:
		f.leaf(n.Init, s)
		f.visit(n.Cond, s)
		fall(f.walk(n.Body.List, f.branch(n, s)))
		if els := f.branch(n, s); n.Else != nil {
			fall(f.stmt(n.Else, els))
		} else {
			fall(els, false)
		}
	case *ast.ForStmt:
		fall(s, false)
		loop := f.clone(s)
		f.leaf(n.Init, loop)
		f.leaf(n.Cond, loop)
		if f.enter != nil {
			f.enter(n, loop)
		}
		loop, exits := f.walk(n.Body.List, loop)
		if !exits {
			f.leaf(n.Post, loop)
		}
		fall(loop, exits)
	case *ast.RangeStmt:
		f.visit(n.X, s)
		fall(s, false)
		fall(f.walk(n.Body.List, f.branch(n, s)))
	case *ast.SwitchStmt:
		f.leaf(n.Init, s)
		f.leaf(n.Tag, s)
		clauses(n.Body, true)
	case *ast.TypeSwitchStmt:
		f.leaf(n.Init, s)
		f.visit(n.Assign, s)
		clauses(n.Body, true)
	case *ast.SelectStmt:
		clauses(n.Body, false)
	default:
		f.visit(stmt, s)
		return s, exitsFlow(stmt)
	}

	// Branch-local facts are dropped where several paths continue; a
	// single continuing path carries its facts on: an `if` whose body
	// exits extends what its condition established to the rest of the
	// list.
	switch len(falls) {
	case 0:
		return s, true
	case 1:
		return falls[0], false
	}
	return s, false
}

// exitsFlow is the one notion of "control does not continue past this
// leaf": a return, a branch (break, continue, goto, fallthrough), or a
// call that never returns.
func exitsFlow(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && neverReturns(call)
	}
	return false
}

// neverReturns is the one notion of a call that does not come back to
// its caller: panic, or a selector call named like os.Exit,
// runtime.Goexit, the Fatal family of log and testing, or log's Panic
// family. The match is by name, whatever the receiver or package.
func neverReturns(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	}
	return false
}
