package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// WireTaintAnalyzer generalizes wiresafety from local syntax to
// interprocedural flows. wiresafety proves every index into a wire
// buffer inside the codec packages is dominated by a len() guard;
// wiretaint proves the *lengths and offsets decoded from those
// buffers* never size an allocation, bound a loop, or index a slice —
// anywhere in the repo — without a dominating bounds guard. That is
// the Gruza-style adversarial-input surface: a 4-byte length field an
// attacker sets to 2^31 must hit a comparison before it hits make().
//
// Taint enters at:
//   - every []byte parameter of every function declared in
//     internal/dnswire or internal/nsec3 (the codec boundary — each
//     function re-seeds, so taint is never lost to a field store);
//   - any buffer filled by a net read (conn.Read, pc.ReadFrom) or an
//     io fill (io.ReadFull, io.ReadAtLeast) anywhere in the repo.
//
// Taint flows through assignments, arithmetic, conversions, slicing
// of a tainted buffer, and values decoded out of one (indexing, the
// encoding/binary Uint* readers) — and across call edges into the
// matching parameter of a statically-resolved callee, with the call
// site recorded so reports carry the full chain from entry point to
// sink.
//
// Taint dies at:
//   - narrow types: a value of type uint8/int8/uint16/int16/bool is
//     bounded by its width (a uint16 can size at most a 64 KiB make —
//     the size of the message the attacker already sent), so
//     `make([]byte, rdlen)` with rdlen uint16 and `int(rdlen)` are
//     clean;
//   - len()/cap() results: bounded by memory the process holds;
//   - a dominating bounds guard: an if whose condition compares the
//     tainted integer (the decoder-cursor idiom
//     `if n < 0 || d.off+n > d.end { return ... }` sanitizes n for
//     the statements after an early exit, and inside the guarded
//     body). Guards sanitize integers only — a sliced buffer stays
//     tainted because its *contents* are still attacker-chosen.
//
// The waiver is //repro:wiretrusted <reason> on the declaration. It
// silences the waived function's own sinks but does NOT stop
// propagation: tainted arguments it passes onward still taint the
// callee, so a waiver can never launder attacker bytes for the rest
// of the call tree. A bare directive without a reason is a finding.
var WireTaintAnalyzer = &Analyzer{
	Name: "wiretaint",
	Doc: "forward-propagate taint from untrusted network bytes ([]byte " +
		"codec parameters, net/io read buffers) into make-size, " +
		"slice-index, slice-bound, and loop-bound sinks lacking a " +
		"dominating bounds guard, across the cross-package call graph",
	RunProject: runWireTaint,
}

// wiretaintSourcePkgs are the package suffixes whose []byte parameters
// are untrusted by definition: the wire codec boundary.
var wiretaintSourcePkgs = []string{"internal/dnswire", "internal/nsec3"}

type wireTaint struct {
	pass *ProjectPass
	g    *CallGraph
	// params holds the tainted parameter objects per node (the node's
	// own signature objects).
	params map[*CallNode]map[*types.Var]bool
	// prov records through which caller a node's parameters first
	// became tainted (nil at an entry point), in Reach's own shape so
	// reports render their chain the same way.
	prov *Reached
	// readRoot marks the entry points whose taint is a network read
	// buffer rather than a codec-boundary parameter.
	readRoot map[*CallNode]bool
	queue    []*CallNode
	queued   map[*CallNode]bool
	// reported dedupes sink reports across re-analyses of a node.
	reported map[token.Pos]bool
}

func runWireTaint(pass *ProjectPass) {
	g := pass.Project.Graph
	w := &wireTaint{
		pass:     pass,
		g:        g,
		params:   make(map[*CallNode]map[*types.Var]bool),
		prov:     &Reached{forward: true, via: make(map[*CallNode]*CallNode)},
		readRoot: make(map[*CallNode]bool),
		queued:   make(map[*CallNode]bool),
		reported: make(map[token.Pos]bool),
	}
	directiveHygiene(pass)

	// Roots: []byte parameters at the codec boundary. Every declared
	// node is queued once regardless, so read-buffer taint (discovered
	// inside bodies) is analyzed too.
	for _, node := range g.Nodes {
		if node.Func == nil || node.Decl == nil {
			continue
		}
		if matchesAny(node.Pkg.Path, wiretaintSourcePkgs) {
			sig := node.Func.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				if p := sig.Params().At(i); isByteSlice(p.Type()) {
					w.taintParam(node, p, nil)
				}
			}
		}
		w.enqueue(node)
	}

	// Worklist: re-analyze a node whenever a new parameter of it is
	// tainted. Taint sets only grow, so this terminates.
	for len(w.queue) > 0 {
		node := w.queue[0]
		w.queue = w.queue[1:]
		w.queued[node] = false
		w.analyze(node)
	}
}

// wtNarrow reports whether a value of type t is bounded by its width
// alone: at most 16 bits of attacker control cannot size a harmful
// allocation or loop.
func wtNarrow(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Bool, types.UntypedBool, types.Int8, types.Int16, types.Uint8, types.Uint16:
		return true
	}
	return false
}

func (w *wireTaint) enqueue(node *CallNode) {
	if node == nil || w.queued[node] {
		return
	}
	w.queued[node] = true
	w.queue = append(w.queue, node)
}

// taintParam marks one parameter of node tainted and records the
// provenance (first writer wins: BFS-ish shortest chains).
func (w *wireTaint) taintParam(node *CallNode, p *types.Var, from *CallNode) {
	set := w.params[node]
	if set == nil {
		set = make(map[*types.Var]bool)
		w.params[node] = set
	}
	if set[p] {
		return
	}
	set[p] = true
	if !w.prov.Has(node) {
		w.prov.via[node] = from
	}
	w.enqueue(node)
}

// analyze runs the intra-procedural pass over one declared function:
// fixpoint taint of locals, then a flow walk tracking guards,
// reporting sinks, and propagating taint into callees. Function
// literals share the enclosing scope and are walked inline.
func (w *wireTaint) analyze(node *CallNode) {
	body := node.Body()
	if body == nil {
		return
	}
	info := node.Pkg.Info

	tainted := make(map[types.Object]bool)
	for p := range w.params[node] {
		tainted[p] = true
	}

	// Read-buffer sources: the argument a net read or io fill writes
	// attacker bytes into.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		var bufArg ast.Expr
		switch fn.Pkg().Path() {
		case "net":
			switch fn.Name() {
			case "Read", "ReadFrom", "ReadFromUDP", "ReadMsgUDP":
				if len(call.Args) > 0 {
					bufArg = call.Args[0]
				}
			}
		case "io":
			switch fn.Name() {
			case "ReadFull", "ReadAtLeast":
				if len(call.Args) > 1 {
					bufArg = call.Args[1]
				}
			}
		}
		if id, ok := ast.Unparen(bufArg).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && !tainted[obj] {
				tainted[obj] = true
				if !w.prov.Has(node) {
					w.prov.via[node], w.readRoot[node] = nil, true
				}
			}
		}
		return true
	})
	if len(tainted) == 0 {
		return
	}

	// Fixpoint: assignments spread taint to locals.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || tainted[obj] || wtNarrow(obj.Type()) {
					continue
				}
				if wtExprTainted(info, as.Rhs[i], tainted, nil) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// Flow walk over the shared walker: the state is the set of
	// integers a dominating comparison has sanitized. Every leaf and
	// control expression is scanned for sinks and callee propagation;
	// an if's comparison guards both its branches (and, when its body
	// exits, the rest of the list); a for condition is additionally a
	// loop-bound sink.
	fl := flow[map[types.Object]bool]{
		clone: maps.Clone[map[types.Object]bool],
		visit: func(n ast.Node, guarded map[types.Object]bool) {
			w.checkExpr(node, n, tainted, guarded)
		},
		enter: func(of ast.Stmt, guarded map[types.Object]bool) {
			switch s := of.(type) {
			case *ast.IfStmt:
				for _, obj := range wtCondGuards(info, s.Cond, tainted) {
					guarded[obj] = true
				}
			case *ast.ForStmt:
				w.checkLoopBound(node, s.Cond, tainted, guarded)
			}
		},
	}
	fl.walk(body.List, make(map[types.Object]bool))
}

// wtExprTainted reports whether e evaluates to an attacker-influenced
// value, given the tainted object set minus guard-sanitized integers.
func wtExprTainted(info *types.Info, e ast.Expr, tainted, guarded map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		return obj != nil && tainted[obj] && !guarded[obj] && !wtNarrow(obj.Type())
	case *ast.IndexExpr:
		// A value read out of a tainted buffer is attacker-chosen —
		// unless its type is too narrow to matter.
		return wtExprTainted(info, e.X, tainted, guarded) && !wtNarrow(info.TypeOf(e))
	case *ast.SliceExpr:
		// A slice of a tainted buffer still holds attacker bytes.
		return wtExprTainted(info, e.X, tainted, guarded)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return false // booleans cannot size anything
		}
		return wtExprTainted(info, e.X, tainted, guarded) || wtExprTainted(info, e.Y, tainted, guarded)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return false
		}
		return wtExprTainted(info, e.X, tainted, guarded)
	case *ast.CallExpr:
		// Conversion: narrowing kills taint, widening preserves it.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 &&
				wtExprTainted(info, e.Args[0], tainted, guarded) &&
				!wtNarrow(info.TypeOf(e))
		}
		// len/cap results are bounded by memory already held.
		if builtinCall(info, e) != "" {
			return false
		}
		// The encoding/binary readers decode attacker integers.
		if fn := calleeFunc(info, e); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "encoding/binary" && !wtNarrow(info.TypeOf(e)) {
			for _, arg := range e.Args {
				if wtExprTainted(info, arg, tainted, guarded) {
					return true
				}
			}
		}
		return false
	}
	return false
}

// wtCondGuards collects the tainted integer objects a condition
// compares — the objects the if statement sanitizes.
func wtCondGuards(info *types.Info, cond ast.Expr, tainted map[types.Object]bool) []types.Object {
	var out []types.Object
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			ast.Inspect(side, func(sn ast.Node) bool {
				id, ok := sn.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				if obj == nil || !tainted[obj] {
					return true
				}
				if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					out = append(out, obj)
				}
				return true
			})
		}
		return true
	})
	return out
}

// checkLoopBound reports a for-loop condition bounded by a tainted,
// unguarded wire value — the CPU-exhaustion shape.
func (w *wireTaint) checkLoopBound(node *CallNode, cond ast.Expr, tainted, guarded map[types.Object]bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch be.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
	default:
		return
	}
	info := node.Pkg.Info
	for _, side := range []ast.Expr{be.X, be.Y} {
		if wtExprTainted(info, side, tainted, guarded) {
			w.reportSink(node, be.Pos(),
				"loop bounded by an untrusted wire value")
			return
		}
	}
}

// checkExpr inspects one expression tree for sinks (make sizes, slice
// indices/bounds) and propagates taint into statically-resolved
// callees. Function literals are walked inline: they share the
// enclosing scope.
func (w *wireTaint) checkExpr(node *CallNode, root ast.Node, tainted, guarded map[types.Object]bool) {
	info := node.Pkg.Info
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if wtExprTainted(info, n.Index, tainted, guarded) {
				w.reportSink(node, n.Pos(),
					"slice index derived from untrusted wire bytes")
			}
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				if bound != nil && wtExprTainted(info, bound, tainted, guarded) {
					w.reportSink(node, n.Pos(),
						"slice bound derived from untrusted wire bytes")
					break
				}
			}
		case *ast.CallExpr:
			if builtinCall(info, n) == "make" {
				for _, arg := range n.Args[1:] {
					if wtExprTainted(info, arg, tainted, guarded) {
						w.reportSink(node, n.Pos(),
							"make sized from untrusted wire bytes")
						break
					}
				}
			}
			w.propagateCall(node, n, tainted, guarded)
		}
		return true
	})
}

// propagateCall taints the matching parameters of a statically
// resolved project callee. Waivers do not stop this: taint flows
// through a //repro:wiretrusted function into everything it calls.
func (w *wireTaint) propagateCall(node *CallNode, call *ast.CallExpr, tainted, guarded map[types.Object]bool) {
	info := node.Pkg.Info
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	callee := w.g.FuncNode(fn)
	if callee == nil || callee.Func == nil {
		return
	}
	sig := callee.Func.Type().(*types.Signature)
	nparams := sig.Params().Len()
	if nparams == 0 {
		return
	}
	// Method-value calls (x.M(a)): call.Args align with the params.
	for i, arg := range call.Args {
		if !wtExprTainted(info, arg, tainted, guarded) {
			continue
		}
		pi := i
		if pi >= nparams {
			pi = nparams - 1 // variadic tail
		}
		p := sig.Params().At(pi)
		if wtNarrow(p.Type()) {
			continue
		}
		w.taintParam(callee, p, node)
	}
}

// reportSink records one finding at pos, with the full chain from the
// taint's entry point — "untrusted wire bytes → dnswire.Unpack →
// dnswire.parseRData" — unless the function is waived.
func (w *wireTaint) reportSink(node *CallNode, pos token.Pos, what string) {
	if node.waived(WireTrustedDirective) || w.reported[pos] {
		return
	}
	w.reported[pos] = true
	root := "untrusted wire bytes"
	if w.readRoot[w.prov.Seed(node)] {
		root = "network read buffer"
	}
	w.pass.Reportf(node.Pkg.Fset, pos,
		"%s without a dominating bounds guard: %s → %s; compare against len() (or the decoder cursor) before use, or annotate with %s <reason>",
		what, root, w.prov.Chain(node), WireTrustedDirective)
}
