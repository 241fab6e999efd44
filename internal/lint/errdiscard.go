package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrDiscardAnalyzer flags discarded error returns. A measurement
// pipeline that silently drops I/O or decode errors produces tables
// that look complete but are not — the "unchecked zone transfer
// failure" class of bug. Two shapes are reported:
//
//   - a call whose results include an error used as a bare statement;
//   - an assignment that discards every result (all blanks, at least
//     one of them an error) with no justification comment on the same
//     line or the line above;
//   - an error-returning call spawned directly by a go or defer
//     statement (`defer f.Close()`, `go w.Flush()`): the statement
//     form has no error channel at all, so the drop must either be
//     justified by a comment (same line or the line above) or the call
//     wrapped in a function that handles the error. A deferred Close
//     on a written file is the classic silent data-loss site.
//
// fmt's Print family and the Write/String methods of strings.Builder
// and bytes.Buffer are exempt: their error results are vestigial
// (documented never to fail for those receivers) and checking them is
// pure noise.
var ErrDiscardAnalyzer = &Analyzer{
	Name: "errdiscard",
	Doc: "flag error returns dropped on the floor, either as bare call " +
		"statements or as uncommented _ = assignments",
	Run: runErrDiscard,
}

func runErrDiscard(pass *Pass) {
	for _, f := range pass.Files {
		comments := commentLines(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				checkSpawnedCall(pass, comments, n.Call, "defer")
			case *ast.GoStmt:
				checkSpawnedCall(pass, comments, n.Call, "go")
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if errIdx := errorResultIndex(pass.Info, call); errIdx >= 0 && !errExempt(pass.Info, call) {
					pass.Reportf(n.Pos(), "result of %s includes an error that is dropped; handle it or assign with a justification comment", callName(pass.Info, call))
				}
			case *ast.AssignStmt:
				if !discardsError(pass.Info, n) {
					return true
				}
				line := pass.Fset.Position(n.Pos()).Line
				if comments[line] || comments[line-1] {
					return true
				}
				pass.Reportf(n.Pos(), "error discarded with _ = and no justification comment; add a same-line or preceding comment explaining why the error is safe to ignore")
			}
			return true
		})
	}
}

// checkSpawnedCall flags an error-returning call used directly as a go
// or defer statement. A func literal is not a drop site itself — its
// body is inspected by the normal statement walk.
func checkSpawnedCall(pass *Pass, comments map[int]bool, call *ast.CallExpr, stmt string) {
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return
	}
	if errorResultIndex(pass.Info, call) < 0 || errExempt(pass.Info, call) {
		return
	}
	line := pass.Fset.Position(call.Pos()).Line
	if comments[line] || comments[line-1] {
		return
	}
	pass.Reportf(call.Pos(), "error returned by %s is dropped by the %s statement; wrap it in a func that handles the error or add a justification comment", callName(pass.Info, call), stmt)
}

// commentLines returns the set of lines in f that carry a comment.
// Golden-test expectation markers ("// want ...") are not justification
// comments and do not count.
func commentLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "// want ") {
				continue
			}
			start := fset.Position(c.Pos()).Line
			end := fset.Position(c.End()).Line
			for l := start; l <= end; l++ {
				lines[l] = true
			}
		}
	}
	return lines
}

// errorResultIndex returns the index of the first error in the call's
// result tuple, or -1 if the call returns no error (or is a builtin,
// conversion, or function-typed variable we cannot resolve).
func errorResultIndex(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
	default:
		if isErrorType(tv.Type) {
			return 0
		}
	}
	return -1
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// errExempt reports whether the call's error result is conventionally
// ignorable: fmt's print family, or the never-failing Write/WriteString/
// WriteByte/WriteRune methods of strings.Builder and bytes.Buffer.
func errExempt(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if isFmtPrint(fn) {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := deref(sig.Recv().Type()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	if (pkg == "strings" && name == "Builder") || (pkg == "bytes" && name == "Buffer") {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return true
		}
	}
	return false
}

// isFmtPrint reports whether fn is one of fmt's Print and Fprint
// functions, the ones that write output.
func isFmtPrint(fn *types.Func) bool {
	switch fn.Name() {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return fn.Pkg() != nil && fn.Pkg().Path() == "fmt"
	}
	return false
}

// callName renders the callee for a diagnostic message.
func callName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		if fn.Pkg() != nil {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return fn.Name()
			}
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return exprString(call.Fun)
}

// discardsError reports whether the assignment throws away every result
// of an error-returning call: all LHS are blank and at least one
// discarded position is an error. `x, _ := f()` keeps a value and is a
// deliberate, visible choice, so only all-blank forms are flagged.
func discardsError(info *types.Info, n *ast.AssignStmt) bool {
	for _, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	for _, rhs := range n.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if errorResultIndex(info, call) >= 0 && !errExempt(info, call) {
			return true
		}
	}
	return false
}
