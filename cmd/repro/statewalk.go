package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/scanner"
	"repro/internal/statewalk"
)

// runStatewalk executes the differential state-machine walk cfg
// describes, writes its records to the file at out, and prints its
// summary to w. Any divergence is an error: either the resolver or
// the expectation model is wrong, and CI must not pass until one of
// them is mended.
func runStatewalk(ctx context.Context, w io.Writer, out string, cfg statewalk.Config) error {
	fmt.Fprintf(w, "== Running the differential state-machine walk (seed %d)…\n\n", cfg.Seed)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	// Records are flushed line-by-line by the encoder; Close only
	// releases the descriptor.
	defer func() { _ = f.Close() }()

	cfg.Out = scanner.NewEncoder(f)
	sum, err := statewalk.Run(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "==== Differential state-machine walk (topology × profile vs expectation model)")
	fmt.Fprintf(w, "  topologies enumerated             %6d\n", sum.Topologies)
	fmt.Fprintf(w, "  resolver profiles                 %6d\n", sum.Profiles)
	fmt.Fprintf(w, "  cells executed                    %6d\n", sum.Cells)
	fmt.Fprintf(w, "  divergences                       %6d  (report: %s)\n\n", sum.Divergences, out)

	if sum.Divergences > 0 {
		return fmt.Errorf("statewalk: %d divergences (see %s)", sum.Divergences, out)
	}
	return nil
}
