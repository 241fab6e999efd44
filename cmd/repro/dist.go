package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/distsurvey"
	"repro/internal/obs"
)

// Distributed mode: `repro -serve ADDR` runs the coordinator — it plans
// the study's shards, leases them to workers, merges their results, and
// prints the same sections the in-process run prints. `repro -worker
// ADDR` runs a worker that executes leased shards; it must be started
// with the same study flags (-fig3 or not, -domain-scale /
// -resolver-scale, -seed, -shards), which the hello handshake
// enforces. Both are generic over the study: -fig3 selects the §4.2
// resolver study, anything else the §4.1 domain survey.

// runDistCoordinator binds addr, serves the study to workers, and
// hands the merged report to print with stdout.
func runDistCoordinator[S core.Study[P, O, R], P, O core.Sharded, R any](ctx context.Context, addr string, spec S, reg *obs.Registry, stateDir string, resume bool, leaseTTL time.Duration, stdout, stderr io.Writer, print func(io.Writer, R)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The bound address goes to stderr so scripts (and CI) can discover
	// a :0 ephemeral port.
	fmt.Fprintf(stderr, "repro: coordinating on %s\n", ln.Addr())
	coord, err := distsurvey.NewCoordinator(distsurvey.CoordinatorConfig[S]{
		Spec:     spec,
		Obs:      reg,
		StateDir: stateDir,
		Resume:   resume,
		LeaseTTL: leaseTTL,
	})
	if err != nil {
		// Serve never runs, so the listener must be released here.
		_ = ln.Close()
		return err
	}
	if n := coord.CheckpointsLoaded(); n > 0 {
		fmt.Fprintf(stderr, "repro: resumed %d checkpointed shard(s) from %s\n", n, stateDir)
	}
	fmt.Fprintf(stdout, "== Coordinating the %s…\n\n", spec)
	report, err := coord.Serve(ctx, ln)
	if err != nil {
		return err
	}
	print(stdout, report)
	return nil
}

// runDistWorker dials the coordinator (retrying while it boots) and
// executes leased shards until the study is done.
func runDistWorker[S core.Study[P, O, R], P, O core.Sharded, R any](ctx context.Context, addr string, spec S, reg *obs.Registry, tracer *obs.Tracer, stderr io.Writer) error {
	conn, err := dialRetry(ctx, addr)
	if err != nil {
		return err
	}
	name, _ := os.Hostname() // best-effort label; empty is fine
	name = fmt.Sprintf("%s/%d", name, os.Getpid())
	fmt.Fprintf(stderr, "repro: worker %s serving coordinator %s\n", name, addr)
	return distsurvey.RunWorker(ctx, conn, spec, distsurvey.WorkerConfig{
		Name:  name,
		Obs:   reg,
		Trace: tracer,
	})
}

// dialRetry connects to the coordinator, retrying for ~5 s so workers
// can be launched before (or alongside) the coordinator.
func dialRetry(ctx context.Context, addr string) (net.Conn, error) {
	var lastErr error
	for i := 0; i < 50; i++ {
		d := net.Dialer{}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("coordinator at %s unreachable: %w", addr, lastErr)
}
