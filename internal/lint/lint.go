// Package lint is a small static-analysis framework for this repository,
// built entirely on the standard library (go/parser, go/ast, go/types).
// It exists because the reproduction's scientific claims rest on
// invariants the Go compiler cannot check:
//
//   - generation and aggregation must be pure functions of the seed,
//     or the Table 2 / Figure 1 calibration stops being reproducible
//     (determinism);
//   - the hand-rolled DNS wire codec must not index past a buffer
//     bound on adversarial bytes, the parser-robustness failure class
//     that NSEC3 CPU-exhaustion attacks exploit at measurement scale
//     (wiresafety);
//   - the concurrent pipeline must stay stoppable and leak-free:
//     cancellation reaches every blocking call and goroutines
//     terminate (ctxprop, goleak);
//   - errors and magic protocol numbers must not slip in as the scanner
//     grows toward production scale (errdiscard, rfcconst).
//
// # What each analyzer buys
//
// An analyzer stays when no other check pins its property. Two audits
// counted, per analyzer of the thirteen the suite once ran: code lines
// (non-blank, non-comment, non-test), the product //repro: waivers it
// reads, its fixture lines under testdata/src, the product bugs it
// caught (from the commit log), and the other check that pins the same
// property. Seven rows name such a check, and those analyzers were
// deleted with their fixtures, waivers and directives; the six kept
// rows name none that pins the whole property. A "partial" check pins
// it only for the inputs it runs.
//
//	analyzer      code  waivers  fixture  findings         other check                        verdict
//	determinism    203        6   112+84  none recorded    partial: core goldens              kept
//	wiresafety     192        0       90  3693454          partial: codec fuzzers             kept
//	ctxprop        217        4      173  43a710f          none (4 paths tested)              kept
//	errdiscard     157        0      104  3693454 f14fe8f  none                               kept
//	goleak         119        0      192  f14fe8f          none                               kept
//	rfcconst        89        0       57  3693454          none                               kept
//	mergepurity    244        6      171  none recorded    TestBuilderOrderIndependent        deleted
//	wiretaint      308        0      254  none recorded    hostile-input tests; fuzzers       deleted
//	copylock       133        0       85  none recorded    go vet copylocks                   deleted
//	lockorder      299        0      169  none             tests; -race leg                   deleted
//	hotpathalloc   260       13      127  73bce59 only     AllocsPerRun pins                  deleted
//	bufalias       237        9      123  73bce59 only     ownership tests; -race leg         deleted
//	poolsafe       224        0       86  73bce59 only     AllocsPerRun pins; -race leg       deleted
//
// Determinism's fixture count adds detertaint's; the generic fixture
// (155 lines) is shared by determinism and ctxprop. mergepurity read
// the six //repro:nondeterministic waivers determinism owns.
// "73bce59 only" means nothing was found after the commit that added
// the analyzer. The findings:
//
//   - 3693454: unguarded b[0]/b[1] reads in the RDATA parsers
//     (wiresafety); 0xF header masks and an NSEC3 algorithm literal
//     (rfcconst); dropped errors in cmd/ and netsim (errdiscard).
//   - f14fe8f: obs.Serve's goroutine unjoined, and semaphore acquires
//     in atlas and the resolver study with no ctx.Done case (goleak);
//     zonesign's dropped close error (errdiscard).
//   - 43a710f: 18 blocking paths without a context, among them
//     netsim.Server.Listen and authserver's lazy-signing wait (ctxprop).
//   - 73bce59: the commit that added hotpathalloc, bufalias and
//     poolsafe made the serving path allocation-free to satisfy them,
//     the pooled UDP read loop and its buffer handoff included.
//
// The other checks, row by row:
//
//   - determinism: internal/core's committed survey and resolver-study
//     reports at seeds 1 and 7, compared across shard splits, pin the
//     output only at the seeds and splits they run. A clock or
//     map-order read whose effect those runs happen not to show passes
//     them; determinism sees the read itself, and its waivers are the
//     one list of sanctioned clocks. Kept.
//   - wiresafety: the dnswire, nsec3 and netsim fuzzers sample inputs;
//     they prove no index safe. wiresafety proves every constant-offset
//     index into a wire buffer in the codec packages dominated by a len
//     guard, and found unguarded reads in the RDATA parsers. Kept.
//   - ctxprop: TestResolverStudyCancelled, statewalk's TestRunCancelled,
//     distsurvey's TestServeCancelWithSilentWorker and netsim's
//     TestRealServerCloseCancelsHandlerCtx cover the paths they name,
//     not a new blocking call. Kept.
//   - errdiscard, rfcconst, goleak: nothing else looks. Kept.
//   - mergepurity (a Merge that reads a clock, keeps the last shard's
//     field or the last map key, or overwrites a mergeable field): core
//     TestBuilderOrderIndependent runs both studies at four shards and
//     folds the outcomes in all 24 orders; every order must build the
//     same report and render the committed seed-1 golden.
//   - wiretaint (a wire-derived length sizing a make, an index or a
//     loop without a dominating guard), by entry point. dnswire's
//     decoders: TestUnpackHostileCountsBounded, TestHostileCorpusFile
//     and the four dnswire fuzzers (FuzzDecodeMessage,
//     FuzzUnpackDifferential, FuzzPlainQueryDifferential,
//     FuzzDecodeName). nsec3: FuzzHash and FuzzHashFromOwner. Network
//     reads: distsurvey's TestFrameRejectsHostileLengths and netsim's
//     FuzzServeWire (netsim's TCP length prefix is a uint16, bounded by
//     its width).
//   - copylock: go vet's copylocks pass, run over the root module and
//     bench/, reports a lock copied through a parameter, receiver,
//     assignment or range variable. It misses a by-value named result;
//     no function in the tree has a result of a lock-bearing type.
//   - lockorder (a method re-acquiring its receiver's mutex through a
//     sibling, a return while holding a lock): any test that runs the
//     path hangs, and go test fails on its timeout; the concurrent
//     paths also run ten more times in ci.sh's -race leg.
//   - hotpathalloc: each of its four roots has an exact
//     testing.AllocsPerRun pin — authserver TestServeWireMissAllocations
//     (serveMiss), dnswire TestPackBufferAllocFree (PackBuffer), nsec3
//     TestAppendHashAllocFree (AppendHash) and netsim TestServeUDPAllocs
//     (serveUDP). The last measures 3 allocations per query that the
//     static proof never reported.
//   - bufalias: dnswire TestUnpackOwnsItsMemory and
//     TestUnpackSlicesStayCapLimited, authserver
//     TestServedAnswersOutliveTheirQuery, and netsim
//     TestPooledBuffersConcurrentQueries under -race.
//   - poolsafe: a Get never Put shows as an allocation in the pin of
//     each pool's path — authserver's scratchPool in
//     TestServeWireMissAllocations, dnswire's encPool in
//     TestPackBufferAllocFree, netsim's wirePool in
//     TestExchangeAllocatesOnlyTheDecodes and pktPool in
//     TestServeUDPAllocs — and a use after Put races in
//     TestPooledBuffersConcurrentQueries and
//     TestServedAnswersOutliveTheirQuery under -race.
//
// # Framework
//
// The framework intentionally mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) without
// depending on it, honoring the repository's stdlib-only constraint.
// Analyzers share their pieces instead of each growing its own: the
// call graph with its one search (callgraph.go: Reach), the
// statement-flow walker with its one notion of a call that never
// returns (flow.go), the //repro: directive table (suppress.go), and
// the syntactic primitives at the end of this file. The cmd/reprolint
// driver loads packages and runs Analyzers().
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Pos locates the finding (file, line, column).
	Pos token.Position
	// Message describes the violation and, where possible, the fix.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps token positions to file locations.
	Fset *token.FileSet
	// Files are the package's syntax trees, already filtered down to the
	// files in the analyzer's scope.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's expression and object tables.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check over a type-checked package, or — when
// RunProject is set — over the whole loaded package set at once.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Packages restricts the analyzer to packages whose import path ends
	// with one of these suffixes (segment-aligned). Empty means every
	// package.
	Packages []string
	// ExemptFiles are file path suffixes the analyzer never inspects,
	// even inside an in-scope package.
	ExemptFiles []string
	// Run inspects pass.Files and calls pass.Reportf for violations.
	// Nil for project-wide analyzers.
	Run func(pass *Pass)
	// RunProject, when set, runs once over the whole package set with
	// the cross-package call graph instead of per package. Project
	// analyzers scope themselves (Packages/ExemptFiles do not apply).
	RunProject func(pass *ProjectPass)
}

// Project is the whole loaded package set plus its call graph — the
// view interprocedural analyzers run on.
type Project struct {
	// Packages are the loaded packages, sharing one token.FileSet.
	Packages []*Package
	// Graph is the static cross-package call graph.
	Graph *CallGraph
}

// NewProject builds the interprocedural view of pkgs.
func NewProject(pkgs []*Package) *Project {
	return &Project{Packages: pkgs, Graph: BuildCallGraph(pkgs)}
}

// ProjectPass carries one project analyzer's run.
type ProjectPass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Project is the loaded package set and call graph.
	Project *Project

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos, located through fset (use the
// owning package's or node's FileSet).
func (p *ProjectPass) Reportf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// pathSuffixMatch reports whether path ends with suffix on a path
// segment boundary ("internal/population" matches
// "repro/internal/population" but not "x/notinternal/population").
func pathSuffixMatch(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// matchesAny reports whether path ends, segment-aligned, with any of
// the suffixes.
func matchesAny(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if pathSuffixMatch(path, s) {
			return true
		}
	}
	return false
}

// inScope reports whether the analyzer applies to the file named
// filename inside the package with import path pkgPath.
func (a *Analyzer) inScope(pkgPath, filename string) bool {
	if matchesAny(filename, a.ExemptFiles) {
		return false
	}
	return len(a.Packages) == 0 || matchesAny(pkgPath, a.Packages)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the parsed source files (tests excluded).
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info is the type-checker's fact tables for Files.
	Info *types.Info
}

// Analyzers returns the full project suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		WireSafetyAnalyzer,
		ErrDiscardAnalyzer,
		RFCConstAnalyzer,
		GoLeakAnalyzer,
		CtxPropAnalyzer,
	}
}

// Run applies each analyzer to each package within its scope and
// returns every diagnostic, sorted by position, analyzer, then message
// (a total order, so reports and goldens are stable).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var project *Project
	for _, a := range analyzers {
		if a.RunProject != nil && project == nil {
			project = NewProject(pkgs)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			var files []*ast.File
			for _, f := range pkg.Files {
				name := pkg.Fset.Position(f.Package).Filename
				if a.inScope(pkg.Path, name) {
					files = append(files, f)
				}
			}
			if len(files) == 0 {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunProject == nil {
			continue
		}
		a.RunProject(&ProjectPass{Analyzer: a, Project: project, diags: &diags})
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message))
	})
	return diags
}

// calleeIdent returns the identifier naming a call's callee — f in
// f(…), pkg.f(…), and x.f(…) — or nil when the callee is not named (a
// function literal, an indexed or returned function value). An
// explicitly instantiated generic callee, f[T](…) or pkg.f[K, V](…),
// wraps the name in an index expression; indexing a slice or map of
// functions has the same syntax and is told apart by calleeFunc, which
// finds a variable rather than a function behind the identifier.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil
// for builtins, function-typed variables, and type conversions. For a
// generic callee it is the declared (uninstantiated) function however
// the type arguments were supplied.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	id := calleeIdent(call)
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// exprString renders an expression in canonical source form, used as a
// syntactic identity key by several analyzers.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name
// (not a method).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// builtinCall returns the name of the builtin e calls ("append", "len",
// "make", ...), or "" when e is anything else — a shadowing declaration
// of the same name included.
func builtinCall(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// isMap reports whether t is a map type.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// deref returns the element type of a pointer type and t itself for
// any other type.
func deref(t types.Type) types.Type {
	if t != nil {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			return p.Elem()
		}
	}
	return t
}

// isByteSlice reports whether t is a byte slice, the wire-buffer type
// (arrays and strings are out of scope everywhere it is asked).
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// declaredIn reports whether obj is declared inside n's extent.
func declaredIn(obj types.Object, n ast.Node) bool {
	return obj != nil && n.Pos() <= obj.Pos() && obj.Pos() <= n.End()
}

// inspectOwn is ast.Inspect over one call-graph node's own code: it
// does not enter function literals, which are nodes of their own.
func inspectOwn(root ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// rootVar returns the variable an lvalue chain is rooted in — through
// parens, dereferences, field selections and indexing (a.b[i].c → a,
// (*p).f → p) — or nil when the chain ends anywhere else (a call, a
// literal).
func rootVar(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}
