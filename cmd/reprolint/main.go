// Command reprolint runs the project's static-analysis suite
// (internal/lint) over the packages matched by its arguments.
//
// Usage:
//
//	go run ./cmd/reprolint [-json] [patterns...]
//
// Patterns default to ./... . Every finding is printed — file:line:col,
// analyzer and message, or with -json one element of a JSON array
// (empty: []) — and the exit status is 0 when there are none, 1 when
// there is any, and 2 on usage or load errors. There is no list of
// tolerated findings and no path filter: a finding is fixed, or waived
// where it stands with a reasoned //repro: directive, a justification
// comment (errdiscard) or a named constant (rfcconst), so that every
// waiver is reviewed in the diff that adds it.
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
	if err := fs.Parse(args); err != nil {
		return 2
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
