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
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/lint"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run analyzes the packages args match and prints every finding. It
// returns the exit status: 0 on a clean tree, 1 with findings, 2 on a
// flag that does not parse (0 for -h) or a load error. Loading and
// analysis are not cancellable, so the context is unused: run has the
// shape every command's run shares.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
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
