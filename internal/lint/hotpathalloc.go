package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// HotPathAllocAnalyzer is the static twin of -benchmem: functions
// reachable from a //repro:hotpath root must contain no allocation
// sites. The ROADMAP's line-rate serving milestone depends on the
// answer path not allocating per query; this analyzer turns that from
// a benchmark regression into a compile-time finding with the full
// root→sink chain.
//
// Roots are declared functions annotated //repro:hotpath <reason>.
// Reachability follows call, go, defer, and closure edges of the
// cross-package graph. Dynamic (interface-dispatch) and ref edges are
// excluded: an interface boundary is a unit boundary — the callee
// signature carries its own contract and can carry its own root — and
// the boxing *at the call site* is what this analyzer flags.
//
// Allocation sites, per function body (nested literals are their own
// nodes, reached over the closure edge):
//
//   - make and new builtins;
//   - append whose destination is a fresh local — appends into
//     caller-provided capacity (a parameter, receiver field, local
//     array slice, or a buffer threaded through append-style calls)
//     amortize against memory the caller owns and are allowed;
//   - composite literals with slice or map type, and &T{...} (value
//     struct literals live on the stack);
//   - string ↔ []byte / []rune conversions;
//   - interface boxing at call sites: a concrete non-pointer value
//     passed to an interface-typed parameter;
//   - function literals that capture enclosing variables (the closure
//     context is heap-allocated);
//   - map writes;
//   - string concatenation with non-constant operands;
//   - any call into package fmt, and errors.New.
//
// The waiver is //repro:allocok <reason> on the declaration. It
// absorbs, like ctxprop's: the waived function's own sites are
// silenced and propagation stops, so a deliberately-allocating helper
// (lazy materialization, response skeleton construction) does not
// condemn its hot callers. Waiver hygiene is enforced both ways: a
// bare directive without a reason is a finding, and so is a waiver
// that silences nothing — neither the function's own body nor anything
// it reaches contains an allocation site.
var HotPathAllocAnalyzer = &Analyzer{
	Name: "hotpathalloc",
	Doc: "forbid allocation sites (make/new, growing append, escaping " +
		"composites, string conversions, interface boxing, closures, map " +
		"writes, fmt) in functions reachable from //repro:hotpath roots",
	RunProject: runHotPathAlloc,
}

// allocSite is one allocation found in a node's body.
type allocSite struct {
	pos  token.Pos
	desc string
}

func runHotPathAlloc(pass *ProjectPass) {
	g := pass.Project.Graph

	// Directive hygiene: reasons are mandatory in both directions, and
	// a function cannot be simultaneously a root and a waiver.
	directiveHygiene(pass)
	var roots []*CallNode
	for _, node := range g.Nodes {
		_, isRoot := node.Directives[HotPathDirective]
		_, isWaived := node.Directives[AllocOKDirective]
		if isRoot && isWaived {
			pass.Reportf(node.Pkg.Fset, node.Pos(),
				"%s and %s on the same declaration contradict each other; a root cannot waive itself", HotPathDirective, AllocOKDirective)
		}
		if node.waived(HotPathDirective) {
			roots = append(roots, node)
		}
	}

	// Forward reachability from roots over call/go/defer/closure edges;
	// waived nodes absorb. Report every allocation site in every hot
	// node, with the chain from its root.
	hot := Reach(roots, Callees, StaticEdges, allocWaived)
	for _, node := range hot.Order {
		for _, site := range allocSites(node) {
			pass.Reportf(node.Pkg.Fset, site.pos,
				"hot path must not allocate: %s in %s; hoist the allocation out of the serving path, reuse caller-provided or pooled memory, or annotate the function with %s <reason>",
				site.desc, hot.Chain(node), AllocOKDirective)
		}
	}

	// Waiver hygiene, second direction: an allocok that silences
	// nothing is stale and must be removed. "Silences" means the waived
	// function's own body, or anything reachable from it (through
	// further waived nodes too), contains at least one allocation site.
	// A call to a function the graph has no body for — another module,
	// or a project package outside the current run's scope, resolved
	// only through export data — counts too: the callee may allocate,
	// so the waiver can never be proven stale. Without this the verdict
	// would flip between full-tree and subset runs.
	for _, node := range g.Nodes {
		if !allocWaived(node) {
			continue
		}
		useful := false
		for _, n := range Reach([]*CallNode{node}, Callees, StaticEdges, nil).Order {
			useful = useful || len(allocSites(n)) > 0 || callsOutsideGraph(g, n)
		}
		if !useful {
			pass.Reportf(node.Pkg.Fset, node.Pos(),
				"%s on %s waives nothing: no allocation site in its body or anything it reaches; remove the stale waiver", AllocOKDirective, node.Name())
		}
	}
}

// allocWaived reports whether the node carries a usable allocok
// directive (reason required).
func allocWaived(node *CallNode) bool { return node.waived(AllocOKDirective) }

// callsOutsideGraph reports whether n's body calls a declared function
// that has no node in the graph, i.e. one whose body the analysis
// cannot see.
func callsOutsideGraph(g *CallGraph, n *CallNode) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	info := n.Pkg.Info
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil && g.FuncNode(fn) == nil {
			found = true
			return false
		}
		return true
	})
	return found
}

// allocSites scans a node's own body (nested literals excluded: they
// are their own nodes) for allocation sites.
func allocSites(node *CallNode) []allocSite {
	body := node.Body()
	if body == nil {
		return nil
	}
	info := node.Pkg.Info
	owned := ownedBuffers(node)
	var sites []allocSite
	add := func(pos token.Pos, desc string) {
		sites = append(sites, allocSite{pos: pos, desc: desc})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The literal's body is its own node; the *creation* of a
			// capturing closure allocates here, in the encloser.
			if capturesVariables(info, n) {
				add(n.Pos(), "a variable-capturing closure (its context is heap-allocated)")
			}
			return false
		case *ast.CallExpr:
			checkCallAlloc(info, n, owned, add)
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				add(n.Pos(), "a slice literal")
			case *types.Map:
				add(n.Pos(), "a map literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "a heap-escaping &composite literal")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isBasic(info.TypeOf(n), types.IsString) {
				if tv, ok := info.Types[ast.Expr(n)]; !ok || tv.Value == nil {
					add(n.Pos(), "a string concatenation")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(info.TypeOf(idx.X)) {
					add(lhs.Pos(), "a map write")
				}
			}
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMap(info.TypeOf(idx.X)) {
				add(n.Pos(), "a map write")
			}
		}
		return true
	})
	return sites
}

// checkCallAlloc classifies one call expression: allocating builtins,
// string conversions, fmt/errors.New calls, and interface boxing of
// concrete non-pointer arguments.
func checkCallAlloc(info *types.Info, call *ast.CallExpr, owned map[types.Object]bool, add func(token.Pos, string)) {
	if builtin := builtinCall(info, call); builtin != "" {
		switch builtin {
		case "make":
			add(call.Pos(), "a make call")
		case "new":
			add(call.Pos(), "a new call")
		case "append":
			if len(call.Args) > 0 && !ownedExpr(info, call.Args[0], owned) {
				add(call.Pos(), "an append into a fresh (non-caller-owned) buffer")
			}
		}
		return
	}
	// Conversions: string <-> []byte / []rune.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if isBasic(to, types.IsString) && isSliceOf(from, types.Uint8, types.Int32) {
			add(call.Pos(), "a []byte/[]rune-to-string conversion")
		} else if isSliceOf(to, types.Uint8, types.Int32) && isBasic(from, types.IsString) {
			add(call.Pos(), "a string-to-[]byte/[]rune conversion")
		}
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		add(call.Pos(), "a fmt."+fn.Name()+" call")
		return
	}
	if isPkgFunc(fn, "errors", "New") {
		add(call.Pos(), "an errors.New call (hoist the sentinel to a package var)")
		return
	}
	// Interface boxing: a concrete non-pointer argument converted to an
	// interface parameter allocates at the call site. Pointers, other
	// interfaces, and untyped nils fit the interface word for free.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // a spread slice is passed as-is
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue
		}
		add(arg.Pos(), "interface boxing of a non-pointer "+at.String()+" argument")
	}
}

// capturesVariables reports whether the literal references objects
// declared outside its own body (other than package-level ones):
// exactly the captures that force a heap-allocated closure context.
func capturesVariables(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !captured {
			v, ok := info.Uses[id].(*types.Var)
			captured = ok && !v.IsField() && !isPackageLevel(v) && !declaredIn(v, lit)
		}
		return !captured
	})
	return captured
}

// ownedBuffers computes the set of local variables holding
// caller-owned capacity in node's body: parameters and the receiver to
// start, grown by a fixpoint over assignments whose right-hand side
// derives from an owned buffer (slicing, append, or threading the
// buffer through an append-style call that also receives it).
func ownedBuffers(node *CallNode) map[types.Object]bool {
	owned := map[types.Object]bool{}
	info := node.Pkg.Info
	var sig *types.Signature
	if node.Func != nil {
		sig, _ = node.Func.Type().(*types.Signature)
	} else if node.Lit != nil {
		sig, _ = info.TypeOf(node.Lit).(*types.Signature)
	}
	if sig != nil {
		if r := sig.Recv(); r != nil {
			owned[r] = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			owned[sig.Params().At(i)] = true
		}
	}
	if body := node.Body(); body != nil {
		growLocals(info, body, false, owned, func(_ types.Object, rhs ast.Expr) bool {
			return ownedExpr(info, rhs, owned)
		})
	}
	return owned
}

// ownedExpr reports whether an expression evaluates to caller-owned
// capacity: an owned variable, a field of one, a deref or slice of
// one, a slice of a local fixed-size array, an append to one, or a
// call that was handed one (the `buf = f(buf)` append-style threading
// idiom).
func ownedExpr(info *types.Info, e ast.Expr, owned map[types.Object]bool) bool {
	// A field of an owned object (e.buf on a receiver) shares its
	// owner's capacity budget.
	root, _ := rootOf(e, hopDeref|hopField|hopIndex)
	switch e := root.(type) {
	case *ast.Ident:
		return owned[info.ObjectOf(e)]
	case *ast.SliceExpr:
		return isLocalArray(info, e.X) || ownedExpr(info, e.X, owned)
	case *ast.CallExpr:
		if builtinCall(info, e) == "append" && len(e.Args) > 0 {
			return ownedExpr(info, e.Args[0], owned)
		}
		// Append-style call: the buffer is threaded through as an
		// argument and (by the idiom's contract) returned.
		return slices.ContainsFunc(e.Args, func(arg ast.Expr) bool { return ownedExpr(info, arg, owned) })
	}
	return false
}

// isLocalArray reports whether e denotes a variable (or pointer to
// one) of fixed-size array type: slicing it yields a stack-backed
// buffer whose capacity is compile-time bounded.
func isLocalArray(info *types.Info, e ast.Expr) bool {
	t := deref(info.TypeOf(ast.Unparen(e)))
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Array)
	return ok
}
