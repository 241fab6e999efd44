package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxPropAnalyzer enforces the cancellation contract the distributed
// survey and the resolver study depend on: every function on a call
// path to blocking I/O must accept a context.Context, so a stuck
// socket or a slow singleflight can always be abandoned from the top
// of the stack. Three rules, all over the cross-package call graph:
//
//  1. A declared function from which a blocking operation — a net
//     dial/listen/accept/read/write, an io.ReadFull/Copy/ReadAll, or a
//     bare send/receive on a struct{} channel (the semaphore and
//     singleflight idiom) — is reachable must have a context.Context
//     parameter. The report carries the full call chain down to the
//     blocking site.
//  2. context.Background() / context.TODO() are reserved for main
//     packages and tests: library code must derive its context from
//     the caller, never mint a root that disconnects cancellation.
//  3. A `for { select { ... } }` service loop must have a cancellation
//     case: a receive from a struct{} channel (ctx.Done() or a
//     shutdown channel). A select with a default clause polls and is
//     exempt.
//
// Channel operations inside select statements are not rule-1 seeds:
// a select is exactly how a blocking channel op acquires its
// cancellation case, and rule 3 polices loops that select without one.
//
// Propagation crosses call, go, defer, and closure edges. Dynamic
// (interface-dispatch) and ref edges are excluded: an interface call
// would inherit the union of every implementor's blocking behavior
// (one blocking io.Writer would condemn every fmt.Fprintf in the
// repo), and the interface boundary is where the signature itself —
// Handle(ctx, ...), Exchange(ctx, ...) — already carries the
// contract.
//
// The waiver is //repro:ctxexempt <reason> on the declaration. Like
// determinism's sanctioned roots it absorbs: a function whose blocking
// is bounded by other means (a conn deadline, a CPU-bound signer, a
// lifecycle owned by a shutdown func) does not impose ctx on its
// callers. A bare directive without a reason is itself a finding.
var CtxPropAnalyzer = &Analyzer{
	Name: "ctxprop",
	Doc: "require a context.Context parameter on every call path to " +
		"blocking I/O (net reads/writes, io fills, struct{}-channel " +
		"semaphores), forbid context.Background outside main/tests, and " +
		"require a cancellation case in select service loops",
	RunProject: runCtxProp,
}

func runCtxProp(pass *ProjectPass) {
	g := pass.Project.Graph
	directiveHygiene(pass)

	// Seed pass: nodes whose own body blocks. Then backward over
	// call/go/defer/closure edges; exempt nodes absorb their own seeds
	// and incoming marks alike.
	source := map[*CallNode]string{}
	var seeds []*CallNode
	for _, node := range g.Nodes {
		if desc := blockingSource(node); desc != "" {
			source[node] = desc
			seeds = append(seeds, node)
		}
	}
	blocked := Reach(seeds, Callers, StaticEdges, ctxExempt)

	// Rule 1 report: every declared, non-main, ctx-less function on a
	// blocking path. Literals inherit their encloser's parameters and
	// cannot be annotated, so they stay silent (the encloser reports).
	for _, node := range blocked.Order {
		if node.Func == nil || node.Pkg.Types.Name() == "main" || hasCtxParam(node.Func) {
			continue
		}
		desc := source[blocked.Seed(node)]
		pass.Reportf(node.Pkg.Fset, node.Pos(),
			"%s is on a blocking path to %s without a context.Context parameter: %s → %s; accept a ctx and thread it to the blocking call, or annotate with %s <reason>",
			node.Name(), desc, blocked.Chain(node), desc, CtxExemptDirective)
	}

	// Rules 2 and 3 are per-body; literals are their own nodes, so
	// every body in the repo is visited exactly once.
	for _, node := range g.Nodes {
		if node.Pkg.Types.Name() == "main" || ctxExemptOrEnclosed(node) {
			continue
		}
		checkCtxRoots(pass, node)
		checkSelectLoops(pass, node)
	}
}

// ctxExempt reports whether the node carries a usable ctxexempt
// directive (reason required).
func ctxExempt(node *CallNode) bool { return node.waived(CtxExemptDirective) }

// ctxExemptOrEnclosed extends the waiver to literals: a closure
// defined inside an exempt function shares its justification.
func ctxExemptOrEnclosed(node *CallNode) bool {
	for n := node; n != nil; {
		if ctxExempt(n) {
			return true
		}
		if n.Func != nil {
			return false
		}
		var encloser *CallNode
		for _, e := range n.In {
			if e.Kind == EdgeClosure {
				encloser = e.Caller
				break
			}
		}
		n = encloser
	}
	return false
}

// hasCtxParam reports whether fn's signature includes a
// context.Context parameter.
func hasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isSignalChan reports whether t is a channel of struct{} — the
// semaphore / done-channel idiom whose bare sends and receives block
// until another goroutine acts.
func isSignalChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// blockingNetFuncs are the net package functions and methods whose
// call blocks on the network (or on kernel accept queues). Resolution
// is by name within package net, which covers both the concrete
// methods ((*UDPConn).ReadFrom) and the interface methods
// (net.Conn.Read, net.Listener.Accept).
var blockingNetFuncs = map[string]bool{
	"Dial": true, "DialContext": true, "DialTimeout": true,
	"Listen": true, "ListenPacket": true, "ListenUDP": true,
	"ListenTCP": true, "ListenIP": true, "ListenMulticastUDP": true,
	"Accept": true, "AcceptTCP": true, "AcceptUDP": true,
	"Read": true, "ReadFrom": true, "ReadFromUDP": true,
	"ReadMsgUDP": true, "Write": true, "WriteTo": true,
	"WriteToUDP": true, "WriteMsgUDP": true,
}

// blockingIOFuncs are the io package fill/drain helpers that loop on
// Read until satisfied.
var blockingIOFuncs = map[string]bool{
	"ReadFull": true, "ReadAtLeast": true, "Copy": true,
	"CopyN": true, "ReadAll": true,
}

// blockingSource describes the first blocking operation in node's own
// body (nested literals are their own nodes and seed separately), ""
// when there is none.
func blockingSource(node *CallNode) string {
	body := node.Body()
	info := node.Pkg.Info

	// Channel ops inside select comm clauses are not seeds: the select
	// is the cancellation mechanism (rule 3 checks it has one).
	inComm := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		cc, ok := n.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			return true
		}
		inComm[cc.Comm] = true
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			inComm[ast.Unparen(s.X)] = true
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				inComm[ast.Unparen(rhs)] = true
			}
		}
		return true
	})

	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "net":
				if blockingNetFuncs[fn.Name()] {
					found = "net." + fn.Name()
				}
			case "io":
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && blockingIOFuncs[fn.Name()] {
					found = "io." + fn.Name()
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inComm[n] && isSignalChan(info.TypeOf(n.X)) {
				found = "a bare struct{}-channel receive"
			}
		case *ast.SendStmt:
			if !inComm[n] && isSignalChan(info.TypeOf(n.Chan)) {
				found = "a bare struct{}-channel send (semaphore acquire)"
			}
		}
		return true
	})
	return found
}

// checkCtxRoots reports context.Background / context.TODO calls (rule
// 2): library code must inherit its context, not mint a root.
func checkCtxRoots(pass *ProjectPass, node *CallNode) {
	info := node.Pkg.Info
	ast.Inspect(node.Body(), func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO") {
			pass.Reportf(node.Pkg.Fset, call.Pos(),
				"context.%s in non-main code disconnects cancellation; thread the caller's ctx here (add a context.Context parameter if the function has none)",
				fn.Name())
		}
		return true
	})
}

// checkSelectLoops reports `for { select { ... } }` service loops with
// no cancellation case (rule 3): without a receive from a struct{}
// channel — ctx.Done() or a shutdown channel — nothing can stop the
// loop from the outside. Selects with a default clause poll rather
// than block and are exempt (goleak separately proves loop exits).
func checkSelectLoops(pass *ProjectPass, node *CallNode) {
	info := node.Pkg.Info
	ast.Inspect(node.Body(), func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		ast.Inspect(loop.Body, func(inner ast.Node) bool {
			switch inner := inner.(type) {
			case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
				return false // nested loops judge their own selects
			case *ast.SelectStmt:
				if !selectHasCancellation(info, inner) {
					pass.Reportf(node.Pkg.Fset, inner.Pos(),
						"select loop in %s has no cancellation case; add `case <-ctx.Done():` (or a shutdown-channel receive) so the loop can be stopped",
						node.Name())
				}
				return false
			}
			return true
		})
		return true
	})
}

// selectHasCancellation reports whether sel has a default clause or a
// comm clause receiving from a struct{} channel.
func selectHasCancellation(info *types.Info, sel *ast.SelectStmt) bool {
	for _, s := range sel.Body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default: the select polls
		}
		var recvExpr ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			recvExpr = comm.X
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				recvExpr = comm.Rhs[0]
			}
		}
		if unary, ok := ast.Unparen(recvExpr).(*ast.UnaryExpr); ok && unary.Op == token.ARROW {
			if isSignalChan(info.TypeOf(unary.X)) {
				return true
			}
		}
	}
	return false
}
