// Command reprolint runs the project's static-analysis suite
// (internal/lint) over the packages matched by its arguments.
//
// Usage:
//
//	go run ./cmd/reprolint [-json] [-exclude path,path] \
//	    [-baseline file] [-write-baseline] [-max-baseline n] [patterns...]
//
// Patterns default to ./... . The exit status is 0 when no diagnostic
// survives suppression and the baseline, 1 when findings remain, and 2
// on load errors.
//
// Suppression: -exclude takes a comma-separated list of path fragments;
// a diagnostic whose file path contains any fragment is dropped. This
// is deliberately coarse — per-finding waivers belong in the code as
// justification comments (errdiscard), named constants (rfcconst), or
// //repro:nondeterministic directives (determinism), not in driver
// flags.
//
// Self-check: -selfcheck <dir> ignores patterns and instead replays
// every analyzer's golden fixture under <dir> (normally
// internal/lint/testdata), emitting one JSON report per analyzer —
// findings count, want-marker mismatches, and run time. CI publishes
// that array as an artifact; a non-OK fixture exits 1. This catches a
// toolchain or refactor that shifts analyzer behavior even when no
// unit test names the changed shape.
//
// Baseline: -baseline names a committed JSON ratchet file. Findings
// matched by an entry (analyzer + file suffix + exact message) are
// tolerated; anything else fails the run, so the tolerated set can
// only shrink. Entries that match nothing are reported as stale —
// delete them. -write-baseline regenerates the file from the current
// findings (the escape hatch when adopting a new analyzer), and
// -max-baseline fails the run when the file holds more than n entries,
// keeping the ratchet honest in CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	exclude := fs.String("exclude", "", "comma-separated path fragments; matching files are suppressed")
	baselinePath := fs.String("baseline", "", "ratchet file of tolerated findings; new findings still fail")
	writeBaseline := fs.Bool("write-baseline", false, "regenerate the -baseline file from current findings and exit")
	maxBaseline := fs.Int("max-baseline", -1, "fail when the baseline holds more than this many entries (-1: no limit)")
	selfcheck := fs.String("selfcheck", "", "replay the golden fixtures under this testdata dir and emit per-analyzer JSON reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selfcheck != "" {
		return runSelfCheck(*selfcheck, stdout, stderr)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	diags := lint.Run(pkgs, lint.Analyzers())
	diags = lint.Suppress(diags, lint.ParseExcludes(*exclude))

	if *writeBaseline {
		if *baselinePath == "" {
			fmt.Fprintln(stderr, "reprolint: -write-baseline requires -baseline")
			return 2
		}
		if err := lint.WriteBaseline(*baselinePath, lint.FromDiagnostics(diags, "accepted when the baseline was regenerated; fix and delete")); err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "reprolint: wrote %d entr(ies) to %s\n", len(diags), *baselinePath)
		return 0
	}

	if *baselinePath != "" {
		base, err := lint.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
		if *maxBaseline >= 0 && len(base.Entries) > *maxBaseline {
			fmt.Fprintf(stderr, "reprolint: baseline %s holds %d entries, over the -max-baseline limit of %d; fix findings instead of accumulating waivers\n",
				*baselinePath, len(base.Entries), *maxBaseline)
			return 1
		}
		var stale []lint.BaselineEntry
		diags, stale = base.Apply(diags)
		for _, e := range stale {
			fmt.Fprintf(stderr, "reprolint: stale baseline entry (finding fixed — delete it): [%s] %s: %s\n", e.Analyzer, e.File, e.Message)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lint.ToJSON(diags)); err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "reprolint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// runSelfCheck replays every golden fixture and writes the per-analyzer
// reports as a JSON array. A fixture whose diagnostics drift from its
// want markers fails the run.
func runSelfCheck(testdataDir string, stdout, stderr io.Writer) int {
	reps, err := lint.SelfCheck(testdataDir)
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reps); err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	failed := 0
	for _, r := range reps {
		if !r.OK() {
			failed++
			for _, m := range r.Missing {
				fmt.Fprintf(stderr, "reprolint: %s: missing: %s\n", r.Analyzer, m)
			}
			for _, u := range r.Unexpected {
				fmt.Fprintf(stderr, "reprolint: %s: unexpected: %s\n", r.Analyzer, u)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "reprolint: %d fixture(s) out of %d failed self-check\n", failed, len(reps))
		return 1
	}
	fmt.Fprintf(stderr, "reprolint: %d fixture(s) passed self-check\n", len(reps))
	return 0
}
