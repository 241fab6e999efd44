package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/scanner"
	"repro/internal/statewalk"
)

// statewalkOptions carries the -statewalk* flags.
type statewalkOptions struct {
	seed      uint64
	out       string
	emitCells bool
	obs       *obs.Registry
}

// runStatewalk executes the differential state-machine walk and prints
// its summary to w. Any divergence is an error: either the resolver or
// the expectation model is wrong, and CI must not pass until one of
// them is mended.
func runStatewalk(ctx context.Context, w io.Writer, o statewalkOptions) error {
	fmt.Fprintf(w, "== Running the differential state-machine walk (seed %d)…\n\n", o.seed)
	f, err := os.Create(o.out)
	if err != nil {
		return err
	}
	// Records are flushed line-by-line by the encoder; Close only
	// releases the descriptor.
	defer func() { _ = f.Close() }()

	sum, err := statewalk.Run(ctx, statewalk.Config{
		Seed:      o.seed,
		EmitCells: o.emitCells,
		Out:       scanner.NewEncoder(f),
		Obs:       o.obs,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "==== Differential state-machine walk (topology × profile vs expectation model)")
	fmt.Fprintf(w, "  topologies enumerated             %6d\n", sum.Topologies)
	fmt.Fprintf(w, "  resolver profiles                 %6d\n", sum.Profiles)
	fmt.Fprintf(w, "  cells executed                    %6d\n", sum.Cells)
	fmt.Fprintf(w, "  divergences                       %6d  (report: %s)\n\n", sum.Divergences, o.out)

	if sum.Divergences > 0 {
		return fmt.Errorf("statewalk: %d divergences (see %s)", sum.Divergences, o.out)
	}
	return nil
}
