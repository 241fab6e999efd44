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
// ctxprop absorb — callers of a waived function stay clean — while
// wiretaint only silences the waived function's own sinks and keeps
// propagating taint through it). A directive without a reason is never
// a waiver: directiveHygiene reports it as a finding of its own.
const (
	// NondetDirective marks a function as a sanctioned nondeterminism
	// root (telemetry clocks, jittered backoff); determinism does not
	// propagate taint past it and mergepurity skips a Merge carrying it.
	NondetDirective = "//repro:nondeterministic"
	// CtxExemptDirective marks a function that legitimately blocks
	// without a context.Context (deadline-armed I/O, CPU-bound
	// singleflight waits, lifecycle owned by a shutdown func).
	CtxExemptDirective = "//repro:ctxexempt"
	// WireTrustedDirective marks a function whose allocation/index
	// sites are bounded by means the taint analysis cannot see (e.g.
	// fuzz-verified framing). Taint still flows through it.
	WireTrustedDirective = "//repro:wiretrusted"
	// HotPathDirective roots the hotpathalloc analysis: everything
	// statically reachable from an annotated function must be free of
	// allocation sites. The reason states why the path is hot.
	HotPathDirective = "//repro:hotpath"
	// AllocOKDirective waives allocation findings on one function and
	// absorbs: hotpathalloc stops propagating through it, and bufalias
	// skips its buffer-escape checks. The reason must say why the
	// allocation (or retention) is acceptable on a hot path.
	AllocOKDirective = "//repro:allocok"
)

// directives is the one table of //repro: directives: which analyzer
// reports a bare one, and what the mandatory reason must state.
var directives = map[string]struct{ owner, reason string }{
	NondetDirective:      {"determinism", "state why this nondeterminism root is sanctioned"},
	CtxExemptDirective:   {"ctxprop", "state why this blocking path needs no context"},
	WireTrustedDirective: {"wiretaint", "state why these wire-derived values are bounded"},
	HotPathDirective:     {"hotpathalloc", "state why this path must serve allocation-free"},
	AllocOKDirective:     {"hotpathalloc", "state why this allocation is acceptable on a hot path"},
}

// directiveHygiene reports, for the running analyzer, every directive
// it owns that lacks a reason — a waiver must be reviewable. The owner
// of HotPathDirective also reports names missing from the table: a
// misspelled waiver still leaves its finding standing, but a misspelled
// root silently drops a function out of the proof, so that analyzer is
// the one that must not stay quiet.
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
			case !ok && self == directives[HotPathDirective].owner:
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
