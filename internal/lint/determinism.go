package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer keeps the deterministic layers a pure function of
// the configured seed: the paper's Table 2 / Figure 1 calibration is
// reproducible only if generation and aggregation never see
//
//   - time.Now / time.Since / time.Until (wall clock);
//   - package-level math/rand and math/rand/v2 draws, which use the
//     global, non-seeded source (constructors like rand.New and
//     rand.NewPCG are allowed — seeded streams are the sanctioned way to
//     sample);
//   - map iteration order: inside a range-over-map, writing directly to
//     an output sink, or appending to a slice that is not sorted
//     afterwards in the same block.
//
// One detector (nondetSources) finds those sites; two scopes decide who
// reports them. Inside Packages every site is reported where it stands
// — internal/obs is there because its rendered /metrics output and
// merged counters must not depend on map order or ambient entropy. And every function declared in determinismRoots from which a
// site is reachable over the call graph — across package boundaries,
// go/defer statements, function literals, interface dispatch, and
// function-value references — is reported at its declaration with the
// full call chain, so "we audited the scanner once" becomes a
// per-commit proof.
//
// Sanctioned roots are annotated in the code, not listed here: a
// //repro:nondeterministic directive (with a mandatory reason) on a
// function declaration silences its own sites and absorbs taint — its
// callers stay clean. Any new wall-clock read anywhere else must either
// be refactored or argue its own exemption in a reviewable one-line
// annotation.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global rand-source draws, and " +
		"map-iteration-order-dependent output in the deterministic " +
		"population/analysis layers, and report every call-graph path " +
		"from the core/population/compliance/analysis layers to one",
	Packages:   []string{"internal/population", "internal/respop", "internal/analysis", "internal/obs"},
	RunProject: runDeterminism,
}

// determinismRoots are the package suffixes whose functions must not
// reach a nondeterminism source (§4.1 survey and §6 resolver-study
// aggregation layers): the site scope plus core and compliance, which
// only the call graph can police.
var determinismRoots = []string{
	"internal/core",
	"internal/population",
	"internal/compliance",
	"internal/analysis",
	"internal/respop",
}

func runDeterminism(pass *ProjectPass) {
	directiveHygiene(pass)

	// Sites, reported where they stand inside the site scope. A whole
	// declaration is scanned, literals included; a sanctioned function
	// is skipped, literals included.
	sited := map[token.Pos]bool{}
	for _, pkg := range pass.Project.Packages {
		for _, f := range pkg.Files {
			if !pass.Analyzer.inScope(pkg.Path, pkg.Fset.Position(f.Package).Filename) {
				continue
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && parseDirectives(fd.Doc)[NondetDirective] != "" {
					continue
				}
				for _, src := range nondetSources(pkg.Info, decl, true) {
					sited[src.pos] = true
					pass.Reportf(pkg.Fset, src.pos, "%s", src.msg)
				}
			}
		}
	}

	// Chains: callers of a node with a site of its own are tainted,
	// backward over every edge kind, stopping at sanctioned roots.
	source := map[*CallNode]nondetSource{}
	var seeds []*CallNode
	for _, node := range pass.Project.Graph.Nodes {
		if src, ok := taintingSource(node); ok {
			source[node] = src
			seeds = append(seeds, node)
		}
	}
	tainted := Reach(seeds, AllEdges, sanctioned)

	// Report the innermost scoped function of each chain: the point
	// where a deterministic layer escapes into tainted territory. Outer
	// scoped callers are implied by that finding and stay silent.
	// Literals cannot report (they have no declaration to annotate), so
	// the successor check skips them: a scoped function whose taint
	// flows through its own closure still reports. A chain that ends at
	// a site already reported inside this very declaration would only
	// repeat it.
	for _, node := range tainted.Order {
		if node.Func == nil || !scopedNode(node) {
			continue
		}
		succ := tainted.Via(node)
		for succ != nil && succ.Func == nil {
			succ = tainted.Via(succ)
		}
		src := source[tainted.Seed(node)]
		if succ != nil && scopedNode(succ) || sited[src.pos] && node.Pos() <= src.pos && src.pos < node.Decl.End() {
			continue
		}
		pass.Reportf(node.Pkg.Fset, node.Pos(),
			"%s reaches nondeterminism source %s: %s → %s; thread the value through the config or annotate the sanctioned root with %s <reason>",
			node.Name(), src.desc, tainted.Chain(node), src.desc, NondetDirective)
	}
}

// sanctioned reports whether the node is an annotated nondeterminism
// root (reason required).
func sanctioned(node *CallNode) bool { return node.waived(NondetDirective) }

// scopedNode reports whether the node's body lives in a deterministic
// root package.
func scopedNode(node *CallNode) bool { return matchesAny(node.Pkg.Path, determinismRoots) }

// nondetSource is one direct nondeterminism site: msg is the finding
// reported where it stands, desc names it at the end of a call chain
// ("time.Now"). desc is empty for a site that does not taint callers:
// an unsorted append is order-dependent only until someone sorts the
// slice, which a caller may well do.
type nondetSource struct {
	pos       token.Pos
	desc, msg string
}

// taintingSource returns the first source in node's own body that
// taints its callers (nested literals are their own nodes).
func taintingSource(node *CallNode) (nondetSource, bool) {
	for _, src := range nondetSources(node.Pkg.Info, node.Body(), false) {
		if src.desc != "" {
			return src, true
		}
	}
	return nondetSource{}, false
}

// nondetSources is the one source detector: every nondeterminism site
// under root — calls first, then map-order dependence — descending into
// function literals only when intoLits is set (on the call graph a
// literal is its own node and seeds separately).
func nondetSources(info *types.Info, root ast.Node, intoLits bool) []nondetSource {
	var out []nondetSource
	inspect := func(under ast.Node, visit func(ast.Node)) {
		ast.Inspect(under, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && !intoLits {
				return false
			}
			if n != nil {
				visit(n)
			}
			return true
		})
	}
	inspect(root, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return // methods (e.g. on a seeded *rand.Rand) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				out = append(out, nondetSource{call.Pos(), "time." + fn.Name(),
					"call to time." + fn.Name() + " leaks the wall clock into a deterministic layer; thread an explicit clock through the config"})
			}
		case "math/rand", "math/rand/v2":
			if !strings.HasPrefix(fn.Name(), "New") {
				name := fn.Pkg().Name() + "." + fn.Name()
				out = append(out, nondetSource{call.Pos(), name + " (global source)",
					"call to " + name + " draws from the global rand source; use a seeded *rand.Rand (rand.New(rand.NewPCG(seed, ...)))"})
			}
		}
	})
	// Every range over a map, judged with the rest of its statement
	// list in view: that is where a redeeming sort would be.
	inspect(root, func(n ast.Node) {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		}
		for i, stmt := range list {
			if ls, ok := stmt.(*ast.LabeledStmt); ok {
				stmt = ls.Stmt
			}
			rs, ok := stmt.(*ast.RangeStmt)
			if !ok || !isMap(info.TypeOf(rs.X)) {
				continue
			}
			// Direct writes to an output sink are always order-dependent;
			// appends are unless the target slice is sorted after the loop
			// in the same statement list. Pure accumulation (sums, building
			// other maps/sets) is order-insensitive and allowed, as are
			// appends to variables declared inside the loop body: a
			// per-iteration local is rebuilt from scratch each pass, so map
			// order cannot leak through it.
			inspect(rs.Body, func(n ast.Node) {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isOutputCall(info, n) {
						out = append(out, nondetSource{n.Pos(), "map-iteration-order output",
							"output written inside range over map " + exprString(rs.X) + " depends on map iteration order; collect and sort first"})
					}
				case *ast.AssignStmt:
					if len(n.Lhs) != 1 || len(n.Rhs) != 1 || builtinCall(info, n.Rhs[0]) != "append" {
						return
					}
					if root := rootVar(info, n.Lhs[0]); declaredIn(root, rs) {
						return
					}
					if target := exprString(n.Lhs[0]); !sortedAfter(info, target, list[i+1:]) {
						out = append(out, nondetSource{n.Pos(), "",
							"append to " + target + " inside range over map " + exprString(rs.X) + " depends on map iteration order; sort " + target + " afterwards (or range over sorted keys)"})
					}
				}
			})
		}
	})
	return out
}

// isOutputCall reports whether the call writes to an output sink:
// a fmt print function or a Write*/print method on any receiver.
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if isFmtPrint(fn) {
		return true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return true
		}
	}
	return false
}

// sortedAfter reports whether some statement in tail calls a sort or
// slices package function with target as an argument.
func sortedAfter(info *types.Info, target string, tail []ast.Stmt) bool {
	found := false
	for _, stmt := range tail {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				found = found || exprString(arg) == target
			}
			return true
		})
	}
	return found
}
