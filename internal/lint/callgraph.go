package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural substrate of the suite: a static
// call graph over every loaded package. The intraprocedural analyzers
// (PR 1) see one function body at a time, which forced the determinism
// guarantee onto a hand-maintained file exemption list; the graph lets
// detertaint, goleak, and lockorder reason about whole call chains
// instead — "core reaches time.Now through the scanner" rather than
// "this file may read the clock".
//
// Resolution is deliberately static and conservative:
//
//   - direct calls to declared functions and methods resolve exactly;
//     a generic function or method is one node, whichever way a call
//     site supplies its type arguments;
//   - go f() and defer f() contribute edges with their own kinds, so
//     analyzers can distinguish a spawned call from a sequential one;
//   - a function literal is its own node, linked to its enclosing
//     function by a closure edge (the encloser constructs it and, as
//     far as a static analysis can tell, may run it);
//   - a call through an interface fans out to the matching method of
//     every named type in the loaded packages whose method set
//     satisfies the interface (dynamic edges) — as does a method call
//     on a type-parameter receiver, through its constraint;
//   - a function merely referenced as a value (passed as a callback,
//     stored in a field) gets a ref edge from the referencing
//     function, because the reference may be called anywhere.
//
// Over-approximation (ref and dynamic edges that never fire at
// runtime) can cause false positives, never false negatives — the
// right bias for reproducibility invariants.

// EdgeKind classifies how a caller reaches a callee.
type EdgeKind int

const (
	// EdgeCall is a plain, sequential call.
	EdgeCall EdgeKind = iota
	// EdgeGo is a call spawned on a new goroutine (go f()).
	EdgeGo
	// EdgeDefer is a deferred call (defer f()).
	EdgeDefer
	// EdgeDynamic is a possible callee of an interface-method call,
	// resolved through the method sets of the loaded packages.
	EdgeDynamic
	// EdgeClosure links a function to a literal defined inside it.
	EdgeClosure
	// EdgeRef records a function value referenced without being
	// called: the reference may be invoked by whoever receives it.
	EdgeRef
)

// String names the kind for diagnostics and tests.
func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	case EdgeDynamic:
		return "dynamic"
	case EdgeClosure:
		return "closure"
	case EdgeRef:
		return "ref"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// CallEdge is one resolved caller→callee relation.
type CallEdge struct {
	Caller, Callee *CallNode
	Kind           EdgeKind
	// Pos locates the call, go, defer, or reference site.
	Pos token.Pos
}

// CallNode is one function in the graph: a declared function or method
// (Func non-nil) or a function literal (Lit non-nil).
type CallNode struct {
	// Func is the declared function or method, nil for literals.
	Func *types.Func
	// Decl is the syntax of a declared function (nil for literals).
	Decl *ast.FuncDecl
	// Lit is the syntax of a function literal (nil for declared).
	Lit *ast.FuncLit
	// Pkg is the loaded package the node's body lives in.
	Pkg *Package
	// NondetReason is the justification text of a
	// //repro:nondeterministic directive on the declaration, "" when
	// the function is not annotated. Annotated functions are sanctioned
	// nondeterminism roots: detertaint does not propagate taint past
	// them.
	NondetReason string
	// Annotated reports whether the directive is present at all (even
	// with a missing reason, which detertaint flags separately).
	Annotated bool
	// Directives maps every //repro:<name> directive on the
	// declaration to its (possibly empty) reason text. NondetReason and
	// Annotated mirror the //repro:nondeterministic entry.
	Directives map[string]string
	// Out and In are the outgoing and incoming edges, in source order.
	Out, In []*CallEdge
}

// Body returns the node's function body ast.
func (n *CallNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// Pos returns the node's declaration position.
func (n *CallNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return token.NoPos
}

// Name renders the node for diagnostics: package-qualified for
// functions ("core.RunSurvey"), receiver-qualified for methods
// ("(*Scanner).query"), position-qualified for literals
// ("func literal at scanner.go:362").
func (n *CallNode) Name() string {
	if n.Func != nil {
		if sig, ok := n.Func.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				return "(*" + typeBaseName(ptr.Elem()) + ")." + n.Func.Name()
			}
			return typeBaseName(recv) + "." + n.Func.Name()
		}
		if n.Func.Pkg() != nil {
			return n.Func.Pkg().Name() + "." + n.Func.Name()
		}
		return n.Func.Name()
	}
	if n.Lit != nil && n.Pkg != nil {
		pos := n.Pkg.Fset.Position(n.Lit.Pos())
		return fmt.Sprintf("func literal at %s:%d", shortPath(pos.Filename), pos.Line)
	}
	return "<unknown>"
}

// typeBaseName returns the bare name of a named (or aliased) type.
func typeBaseName(t types.Type) string {
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return t.Obj().Name()
	}
	return t.String()
}

// shortPath trims a file path to its last two segments, keeping
// diagnostics readable without losing the package directory.
func shortPath(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) <= 2 {
		return p
	}
	return strings.Join(parts[len(parts)-2:], "/")
}

// CallGraph is the static call graph of a loaded package set.
type CallGraph struct {
	// Nodes lists every node in deterministic order: declared
	// functions in package/position order, literals after their
	// enclosing function.
	Nodes []*CallNode

	// funcs is keyed by funcKey, not *types.Func: each package is
	// type-checked against export data, so the same method seen from an
	// importing package is a distinct object. The key restores identity
	// across packages.
	funcs map[string]*CallNode
	lits  map[*ast.FuncLit]*CallNode
}

// funcKey is the cross-package identity of a declared function or
// method: "pkgpath.Name" or "pkgpath.(*Recv).Name".
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		ptr := ""
		if p, isPtr := recv.(*types.Pointer); isPtr {
			recv, ptr = p.Elem(), "*"
		}
		return pkg + ".(" + ptr + typeBaseName(recv) + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// FuncNode returns the node for a declared function or method, or nil
// when fn was not declared (with a body) in the loaded packages.
func (g *CallGraph) FuncNode(fn *types.Func) *CallNode {
	return g.funcs[funcKey(fn)]
}

// LitNode returns the node for a function literal in the loaded
// packages, or nil.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *CallNode {
	return g.lits[lit]
}

// NondetDirective is the comment directive that marks a function as a
// sanctioned nondeterminism root, e.g.
//
//	//repro:nondeterministic span timing is telemetry, never report data
//	func (t *Tracer) Start(...)
//
// The reason is mandatory; detertaint reports a bare directive.
const NondetDirective = "//repro:nondeterministic"

// Directive reports whether the declaration carries the named
// //repro: directive, and its reason text. Literals carry nothing:
// only declared functions can be annotated, keeping waivers greppable.
func (n *CallNode) Directive(name string) (reason string, ok bool) {
	reason, ok = n.Directives[name]
	return reason, ok
}

// BuildCallGraph constructs the call graph of pkgs. All packages must
// share one token.FileSet (as Load guarantees).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		funcs: make(map[string]*CallNode),
		lits:  make(map[*ast.FuncLit]*CallNode),
	}
	b := &graphBuilder{g: g}
	// Pass 1: a node per declared function, so forward references and
	// cross-package calls resolve regardless of build order.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := &CallNode{Func: fn, Decl: fd, Pkg: pkg}
				node.Directives = parseDirectives(fd.Doc)
				node.NondetReason, node.Annotated = node.Directive(NondetDirective)
				g.funcs[funcKey(fn)] = node
				g.Nodes = append(g.Nodes, node)
			}
		}
	}
	b.collectConcreteTypes(pkgs)
	// Pass 2: edges (and literal nodes) from every body.
	for _, node := range append([]*CallNode(nil), g.Nodes...) {
		b.walkBody(node, node.Decl.Body)
	}
	return g
}

// graphBuilder carries pass-2 state.
type graphBuilder struct {
	g *CallGraph
	// concrete is every named type defined in the loaded packages,
	// the candidate set for interface-dispatch resolution.
	concrete []types.Type
}

// collectConcreteTypes gathers the named types (and their pointers)
// whose method sets can satisfy an interface call.
func (b *graphBuilder) collectConcreteTypes(pkgs []*Package) {
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if types.IsInterface(t) {
				continue
			}
			b.concrete = append(b.concrete, t, types.NewPointer(t))
		}
	}
}

// addEdge links caller→callee and records the edge on both nodes.
func addEdge(caller, callee *CallNode, kind EdgeKind, pos token.Pos) {
	e := &CallEdge{Caller: caller, Callee: callee, Kind: kind, Pos: pos}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// walkBody resolves the edges of one node's body. Nested function
// literals become child nodes and are walked recursively under their
// own identity.
func (b *graphBuilder) walkBody(node *CallNode, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	info := node.Pkg.Info
	// Call sites spawned by go/defer carry those kinds instead of
	// EdgeCall; callee identifiers must not double as ref edges.
	kinds := map[*ast.CallExpr]EdgeKind{}
	calleeIdents := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			kinds[n.Call] = EdgeGo
		case *ast.DeferStmt:
			kinds[n.Call] = EdgeDefer
		case *ast.CallExpr:
			if id := calleeIdent(n); id != nil {
				calleeIdents[id] = true
			}
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			child := b.g.lits[n]
			if child == nil {
				// Usually fresh; an immediately invoked literal was
				// already registered by resolveCall on its CallExpr.
				child = &CallNode{Lit: n, Pkg: node.Pkg}
				b.g.lits[n] = child
				b.g.Nodes = append(b.g.Nodes, child)
			}
			addEdge(node, child, EdgeClosure, n.Pos())
			b.walkBody(child, n.Body)
			return false // the child owns its body
		case *ast.CallExpr:
			kind, ok := kinds[n]
			if !ok {
				kind = EdgeCall
			}
			b.resolveCall(node, n, kind)
			return true
		case *ast.Ident:
			if calleeIdents[n] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				if callee := b.g.FuncNode(fn); callee != nil {
					addEdge(node, callee, EdgeRef, n.Pos())
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

// resolveCall adds the edge(s) for one call expression.
func (b *graphBuilder) resolveCall(caller *CallNode, call *ast.CallExpr, kind EdgeKind) {
	info := caller.Pkg.Info
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked literal: the closure edge is added when
		// the literal is visited; record the invocation too so go/defer
		// kinds survive (go func(){...}()).
		callee := b.g.lits[lit]
		if callee == nil {
			// The inspection visits a CallExpr before its Fun child, so
			// an immediately invoked literal is registered here and its
			// body walked when the FuncLit node itself is reached.
			callee = &CallNode{Lit: lit, Pkg: caller.Pkg}
			b.g.lits[lit] = callee
			b.g.Nodes = append(b.g.Nodes, callee)
		}
		addEdge(caller, callee, kind, call.Pos())
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return // builtin, conversion, or function-typed variable
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if recv := sig.Recv().Type(); types.IsInterface(recv.Underlying()) {
			b.resolveDynamic(caller, call, fn, kind)
			return
		}
	}
	if callee := b.g.FuncNode(fn); callee != nil {
		addEdge(caller, callee, kind, call.Pos())
	}
}

// resolveDynamic fans an interface-method call out to every concrete
// method in the loaded packages that can satisfy it. A call on a value
// of type-parameter type lands here too: its method belongs to the
// constraint interface.
//
// Inside generic code the interface usually mentions type parameters —
// s.Execute(job) with s constrained by Study[J, O], or a field of type
// executor[J, O] — and no concrete type implements that exactly: the
// identical-signature test needs the instantiation, which a static
// graph over the generic body does not have. Such an interface is
// matched loosely instead (mayImplement), the same over-approximating
// bias as the rest of the graph: the call reaches every instantiation's
// method rather than none.
func (b *graphBuilder) resolveDynamic(caller *CallNode, call *ast.CallExpr, iface *types.Func, kind EdgeKind) {
	recv := iface.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	dynKind := kind
	if dynKind == EdgeCall {
		dynKind = EdgeDynamic
	}
	open := false
	for i := 0; i < recv.NumMethods() && !open; i++ {
		open = mentionsTypeParam(recv.Method(i).Type())
	}
	seen := map[*CallNode]bool{}
	for _, t := range b.concrete {
		if !types.Implements(t, recv) && !(open && mayImplement(t, recv)) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, iface.Pkg(), iface.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if callee := b.g.FuncNode(m); callee != nil && !seen[callee] {
			seen[callee] = true
			addEdge(caller, callee, dynKind, call.Pos())
		}
	}
}

// mentionsTypeParam reports whether t is, or is composed from, a type
// parameter. Named types are searched through their type arguments
// only, so recursive type declarations terminate.
func mentionsTypeParam(t types.Type) bool {
	switch t := types.Unalias(t).(type) {
	case *types.TypeParam:
		return true
	case *types.Pointer:
		return mentionsTypeParam(t.Elem())
	case *types.Slice:
		return mentionsTypeParam(t.Elem())
	case *types.Array:
		return mentionsTypeParam(t.Elem())
	case *types.Chan:
		return mentionsTypeParam(t.Elem())
	case *types.Map:
		return mentionsTypeParam(t.Key()) || mentionsTypeParam(t.Elem())
	case *types.Signature:
		return mentionsTypeParam(t.Params()) || mentionsTypeParam(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if mentionsTypeParam(t.At(i).Type()) {
				return true
			}
		}
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if mentionsTypeParam(t.TypeArgs().At(i)) {
				return true
			}
		}
	}
	return false
}

// mayImplement is the loose satisfaction test for an interface that
// mentions type parameters: t has every method of iface by name, with
// the same number of parameters and results. Some instantiation may
// make the signatures identical; none can if the shapes already differ.
func mayImplement(t types.Type, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		want := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(t, true, want.Pkg(), want.Name())
		got, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		ws, gs := want.Type().(*types.Signature), got.Type().(*types.Signature)
		if ws.Params().Len() != gs.Params().Len() || ws.Results().Len() != gs.Results().Len() || ws.Variadic() != gs.Variadic() {
			return false
		}
	}
	return true
}
