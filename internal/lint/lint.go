// Package lint is a small static-analysis framework for this repository,
// built entirely on the standard library (go/parser, go/ast, go/types).
// It exists because the reproduction's scientific claims rest on
// invariants the Go compiler cannot check:
//
//   - generation, aggregation and merging must be pure functions of the
//     seed, at any shard split, or the Table 2 / Figure 1 calibration
//     stops being reproducible (determinism, mergepurity);
//   - the hand-rolled DNS wire codec must survive adversarial bytes —
//     no index past a buffer bound, no attacker-sized allocation or
//     loop — the parser-robustness failure class that NSEC3
//     CPU-exhaustion attacks exploit at measurement scale (wiresafety,
//     wiretaint);
//   - the concurrent pipeline must stay stoppable and leak-free:
//     cancellation reaches every blocking call, goroutines terminate,
//     locks are neither copied nor re-entered (ctxprop, goleak,
//     lockorder, copylock);
//   - the serving path must stay allocation-free and its recycled
//     buffers unaliased (hotpathalloc, bufalias, poolsafe);
//   - errors and magic protocol numbers must not slip in as the scanner
//     grows toward production scale (errdiscard, rfcconst).
//
// The framework intentionally mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) without
// depending on it, honoring the repository's stdlib-only constraint.
// Analyzers share three pieces instead of each growing its own: the
// call graph with its one search (callgraph.go: Reach), the
// statement-flow walker (flow.go), and the //repro: directive table
// (suppress.go). The cmd/reprolint driver loads packages and runs
// Analyzers().
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Packages restricts the analyzer to packages whose import path ends
	// with one of these suffixes (segment-aligned). Empty means every
	// package.
	Packages []string
	// ExtraFiles admits individual files (path suffix match) that live
	// in packages outside the Packages scope.
	ExtraFiles []string
	// ExemptFiles are file path suffixes the analyzer never inspects,
	// even inside an in-scope package.
	ExemptFiles []string
	// Run inspects pass.Files and calls pass.Reportf for violations.
	// Nil for project-wide analyzers.
	Run func(pass *Pass)
	// RunProject, when set, runs once over the whole package set with
	// the cross-package call graph instead of per package. Project
	// analyzers scope themselves (Packages/ExtraFiles/ExemptFiles do
	// not apply).
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
	return len(a.Packages) == 0 || matchesAny(pkgPath, a.Packages) || matchesAny(filename, a.ExtraFiles)
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
		CopyLockAnalyzer,
		RFCConstAnalyzer,
		GoLeakAnalyzer,
		LockOrderAnalyzer,
		CtxPropAnalyzer,
		WireTaintAnalyzer,
		MergePurityAnalyzer,
		HotPathAllocAnalyzer,
		BufAliasAnalyzer,
		PoolSafeAnalyzer,
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
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
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

// isSliceOf reports whether t is a slice whose element is the basic
// kind elem; isByteSlice is the wire-buffer case (arrays and strings
// are out of scope everywhere it is asked).
func isSliceOf(t types.Type, elem types.BasicKind) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == elem
}

func isByteSlice(t types.Type) bool { return isSliceOf(t, types.Uint8) }
