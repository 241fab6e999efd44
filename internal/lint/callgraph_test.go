package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// buildFixtureGraph type-checks the callgraph fixture and returns its
// graph.
func buildFixtureGraph(t *testing.T) *lint.CallGraph {
	t.Helper()
	fset := token.NewFileSet()
	srcDir := filepath.Join("testdata", "src", "callgraph")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(srcDir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{}
	tpkg, err := conf.Check("repro/internal/cgfix", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &lint.Package{Path: "repro/internal/cgfix", Fset: fset, Files: files, Types: tpkg, Info: info}
	return lint.BuildCallGraph([]*lint.Package{pkg})
}

func findNode(t *testing.T, g *lint.CallGraph, name string) *lint.CallNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %q in graph", name)
	return nil
}

// edgeKinds renders a node's outgoing edges as "callee/kind" strings.
func edgeKinds(n *lint.CallNode) []string {
	var out []string
	for _, e := range n.Out {
		callee := e.Callee.Name()
		if strings.HasPrefix(callee, "func literal") {
			callee = "literal"
		}
		out = append(out, callee+"/"+e.Kind.String())
	}
	return out
}

func hasEdge(n *lint.CallNode, want string) bool {
	for _, got := range edgeKinds(n) {
		if got == want {
			return true
		}
	}
	return false
}

// TestCallGraphEdgeKinds pins one edge of every kind the builder
// resolves: call, go, defer, closure, ref, and interface dispatch.
func TestCallGraphEdgeKinds(t *testing.T) {
	g := buildFixtureGraph(t)
	cases := []struct {
		node string
		edge string
	}{
		{"cgfix.plainCall", "cgfix.callee/call"},
		{"cgfix.spawn", "cgfix.callee/go"},
		{"cgfix.deferred", "cgfix.callee/defer"},
		{"cgfix.closure", "literal/closure"},
		{"cgfix.immediate", "literal/closure"},
		{"cgfix.immediate", "literal/call"},
		{"cgfix.reference", "cgfix.callee/ref"},
		{"cgfix.dispatch", "RealDoer.Do/dynamic"},
	}
	for _, tc := range cases {
		n := findNode(t, g, tc.node)
		if !hasEdge(n, tc.edge) {
			t.Errorf("%s: missing edge %s; have %v", tc.node, tc.edge, edgeKinds(n))
		}
	}

	// The literal inside closure() is its own node and carries the
	// enclosing call's edges, not the encloser's.
	lit := findNode(t, g, "cgfix.closure").Out[0].Callee
	if lit.Func != nil {
		t.Errorf("closure edge callee is not a literal node: %s", lit.Name())
	}

	// The spawned callee's In edges point back at the spawner.
	callee := findNode(t, g, "cgfix.callee")
	found := false
	for _, e := range callee.In {
		if e.Caller.Name() == "cgfix.spawn" && e.Kind == lint.EdgeGo {
			found = true
		}
	}
	if !found {
		t.Errorf("cgfix.callee has no incoming go edge from spawn")
	}
}

// TestCallGraphCrossPackage drives the real loader over two repo
// packages and asserts a cross-package edge resolves. This pins the
// funcKey identity bridge: each package is type-checked against export
// data, so the same function is a distinct types.Func object on the
// two sides of the import.
func TestCallGraphCrossPackage(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/atlas", "./internal/testbed")
	if err != nil {
		t.Fatal(err)
	}
	g := lint.BuildCallGraph(pkgs)
	probe := findNode(t, g, "testbed.ProbeResolvers")
	for _, e := range probe.In {
		if e.Caller.Pkg.Path == "repro/internal/atlas" {
			return
		}
	}
	t.Errorf("testbed.ProbeResolvers has no caller from repro/internal/atlas; in-edges: %d", len(probe.In))
}

// reaches reports whether to is reachable from from over any edges.
func reaches(from, to *lint.CallNode) bool {
	return lint.Reach([]*lint.CallNode{from}, lint.Callees, lint.AllEdges, nil).Has(to)
}

// TestReach pins the one search every chain-reporting analyzer runs:
// both directions, shortest chains rendered in call order, the
// edge-kind filter, and absorption — which stops propagation through a
// node (and drops it as a seed) without touching the other seeds.
func TestReach(t *testing.T) {
	g := buildFixtureGraph(t)
	node := func(name string) *lint.CallNode { return findNode(t, g, name) }
	callee, outer, inner := node("cgfix.callee"), node("cgfix.outer"), node("cgfix.inner")
	isNode := func(n *lint.CallNode) func(*lint.CallNode) bool {
		return func(m *lint.CallNode) bool { return m == n }
	}

	// Forward: outer reaches callee directly and through inner; breadth
	// first keeps the direct chain.
	fwd := lint.Reach([]*lint.CallNode{outer}, lint.Callees, lint.AllEdges, nil)
	if got, want := fwd.Chain(callee), "cgfix.outer → cgfix.callee"; got != want {
		t.Errorf("forward chain = %q, want %q", got, want)
	}
	if fwd.Seed(callee) != outer || fwd.Via(outer) != nil || fwd.Order[0] != outer {
		t.Errorf("forward search does not start at its seed")
	}

	// Backward from callee: every caller, chains still in call order.
	back := lint.Reach([]*lint.CallNode{callee}, lint.Callers, lint.AllEdges, nil)
	if got, want := back.Chain(inner), "cgfix.inner → cgfix.callee"; got != want {
		t.Errorf("backward chain = %q, want %q", got, want)
	}
	for _, name := range []string{"cgfix.plainCall", "cgfix.spawn", "cgfix.deferred", "cgfix.reference", "cgfix.immediate", "cgfix.outer"} {
		if !back.Has(node(name)) {
			t.Errorf("backward search over all edges missed %s", name)
		}
	}
	if back.Has(node("cgfix.dispatch")) {
		t.Errorf("backward search reached cgfix.dispatch, which never reaches callee")
	}

	// Edge-kind filter: only the plain and deferred calls survive.
	plain := lint.Reach([]*lint.CallNode{callee}, lint.Callers, lint.Edges(lint.EdgeCall, lint.EdgeDefer), nil)
	for name, want := range map[string]bool{
		"cgfix.plainCall": true, "cgfix.deferred": true, "cgfix.inner": true, "cgfix.outer": true,
		"cgfix.spawn": false, "cgfix.reference": false,
	} {
		if got := plain.Has(node(name)); got != want {
			t.Errorf("call/defer-only search: reached %s = %v, want %v", name, got, want)
		}
	}

	// Absorb: with inner absorbing, top — whose only path runs through
	// inner — is cut off, while outer is still reached by its own direct
	// call; an absorbed seed is dropped while the other seed propagates.
	top := node("cgfix.top")
	absorbed := lint.Reach([]*lint.CallNode{callee}, lint.Callers, lint.AllEdges, isNode(inner))
	if absorbed.Has(inner) || absorbed.Has(top) || !absorbed.Has(outer) || !back.Has(top) {
		t.Errorf("absorbing inner: reached inner=%v top=%v outer=%v (top without absorb: %v), want false/false/true (true)",
			absorbed.Has(inner), absorbed.Has(top), absorbed.Has(outer), back.Has(top))
	}
	seeds := lint.Reach([]*lint.CallNode{inner, node("cgfix.plainCall")}, lint.Callers, lint.AllEdges, isNode(inner))
	if seeds.Has(inner) || seeds.Has(top) || !seeds.Has(node("cgfix.plainCall")) {
		t.Errorf("an absorbed seed must be dropped and stop nothing else")
	}
}

// TestCallGraphSeesThroughStudyEngine pins the chains the generic study
// engine must not hide from determinism, goleak, and mergepurity: both
// in-process entry points and the distributed worker loop reach the
// execute body of both instantiations. The graph has one node per
// generic function, so each entry point reaches both bodies — the
// explicitly instantiated callees (NewRunner[S], executeLease[S]), the
// type-parameter method call (job.Spec.newExecutor), and the generic
// interface field (run.exec.execute) all have to resolve on the way.
func TestCallGraphSeesThroughStudyEngine(t *testing.T) {
	pkgs, err := lint.Load("../..", "./internal/core", "./internal/distsurvey")
	if err != nil {
		t.Fatal(err)
	}
	g := lint.BuildCallGraph(pkgs)
	for _, entry := range []string{"core.RunSurvey", "core.RunResolverStudy", "distsurvey.RunWorker"} {
		for _, body := range []string{"(*surveyExec).execute", "(*resolverExec).execute"} {
			if !reaches(findNode(t, g, entry), findNode(t, g, body)) {
				t.Errorf("%s does not reach %s", entry, body)
			}
		}
	}
}
