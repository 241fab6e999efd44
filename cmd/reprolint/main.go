// Command reprolint runs the project's static-analysis suite
// (internal/lint) over the packages matched by its arguments.
//
// Usage:
//
//	go run ./cmd/reprolint [-json] [patterns...]
//	go run ./cmd/reprolint -selfcheck <testdata dir>
//
// Patterns default to ./... . Every finding is printed — file:line:col,
// analyzer and message, or with -json one element of a JSON array
// (empty: []) — and the exit status is 0 when there are none, 1 when
// there is any, and 2 on usage or load errors. There is no list of
// tolerated findings and no path filter: a finding is fixed, or waived
// where it stands with a reasoned //repro: directive, a justification
// comment (errdiscard) or a named constant (rfcconst), so that every
// waiver is reviewed in the diff that adds it.
//
// Self-check: -selfcheck <dir> ignores patterns and instead replays
// every analyzer's golden fixture under <dir> (normally
// internal/lint/testdata), emitting one JSON report per analyzer —
// findings count, want-marker mismatches, and run time. CI publishes
// that array as an artifact; a non-OK fixture exits 1. This catches a
// toolchain or refactor that shifts analyzer behavior even when no
// unit test names the changed shape.
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
