package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// Waiver directives. Each analyzer that supports per-function waivers
// names its directive here; the call-graph builder collects every
// //repro:<name> directive on a declaration into CallNode.Directives,
// and the owning analyzer decides the semantics (determinism and
// ctxprop both absorb: callers of a waived function stay clean). A
// directive without a reason is never a waiver: directiveHygiene
// reports it as a finding of its own.
const (
	// NondetDirective marks a function as a sanctioned nondeterminism
	// root (telemetry clocks, jittered backoff); determinism does not
	// propagate taint past it.
	NondetDirective = "//repro:nondeterministic"
	// CtxExemptDirective marks a function that legitimately blocks
	// without a context.Context (deadline-armed I/O, CPU-bound
	// singleflight waits, lifecycle owned by a shutdown func).
	CtxExemptDirective = "//repro:ctxexempt"
)

// directives is the one table of //repro: directives: which analyzer
// reports a bare one, and what the mandatory reason must state.
var directives = map[string]struct{ owner, reason string }{
	NondetDirective:    {"determinism", "state why this nondeterminism root is sanctioned"},
	CtxExemptDirective: {"ctxprop", "state why this blocking path needs no context"},
}

// directiveHygiene reports, for the running analyzer, every directive
// it owns that lacks a reason — a waiver must be reviewable. The owner
// of NondetDirective also reports names missing from the table, so a
// misspelled waiver is named where it stands instead of passing for a
// waiver that failed to absorb.
func directiveHygiene(pass *ProjectPass) {
	self := pass.Analyzer.Name
	var known []string
	for name := range directives {
		known = append(known, name)
	}
	sort.Strings(known)
	for _, node := range pass.Project.Graph.Nodes {
		for name, reason := range node.Directives {
			d, ok := directives[name]
			switch {
			case !ok && self == directives[NondetDirective].owner:
				pass.Reportf(node.Pkg.Fset, node.Pos(), "unknown directive %s; known: %s", name, strings.Join(known, ", "))
			case ok && d.owner == self && reason == "":
				pass.Reportf(node.Pkg.Fset, node.Pos(), "%s directive without a reason; %s", name, d.reason)
			}
		}
	}
}

// parseDirectives collects every //repro:<name> directive in a doc
// comment group, keyed by the full directive ("//repro:ctxexempt"),
// with the rest of the line — the mandatory reason — as the value.
// Returns nil when the declaration carries no directive.
func parseDirectives(doc *ast.CommentGroup) map[string]string {
	if doc == nil {
		return nil
	}
	var out map[string]string
	for _, c := range doc.List {
		rest, found := strings.CutPrefix(c.Text, "//repro:")
		if !found {
			continue
		}
		name, reason, _ := strings.Cut(rest, " ")
		if name == "" {
			continue
		}
		if out == nil {
			out = make(map[string]string)
		}
		out["//repro:"+name] = strings.TrimSpace(reason)
	}
	return out
}

// JSONDiagnostic is the stable -json output shape of one finding.
type JSONDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// ToJSON converts diagnostics to the -json wire shape. The result is
// never nil, so empty runs encode as [] rather than null.
func ToJSON(diags []Diagnostic) []JSONDiagnostic {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, JSONDiagnostic{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	return out
}
