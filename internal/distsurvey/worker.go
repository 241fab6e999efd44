package distsurvey

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/testbed"
)

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Name identifies the worker in coordinator-side accounting.
	Name string
	// Obs accumulates the worker's own view of its shard metrics (the
	// coordinator gets per-shard snapshots either way). May be nil.
	Obs *obs.Registry
	// Trace receives the worker's phase spans. May be nil.
	Trace *obs.Tracer
}

// RunWorker speaks the worker side of the protocol on conn for the
// study spec describes: hello, then lease→execute→result until the
// coordinator says done. Each shard executes through the exact same
// core.Runner path core.Run uses; a fresh per-job registry makes each
// result's obs snapshot the shard's own delta, while the sign cache is
// shared across jobs so repeated infrastructure zones sign once per
// process. RunWorker owns conn and closes it on the way out.
func RunWorker[S core.Study[P, O, R], P, O core.Sharded, R any](ctx context.Context, conn net.Conn, spec S, cfg WorkerConfig) error {
	defer func() {
		// The coordinator treats conn death as lease release; closing is
		// the worker's own cleanup either way.
		_ = conn.Close()
	}()
	w := &wireConn{conn: conn}
	if err := w.write(ctx, &Frame{
		Type:       TypeHello,
		Version:    ProtocolVersion,
		ConfigHash: spec.Hash(),
		Worker:     cfg.Name,
	}); err != nil {
		return err
	}
	ok, err := w.read(ctx)
	if err != nil {
		return err
	}
	switch ok.Type {
	case TypeHelloOK:
	case TypeError:
		return &HandshakeError{Reason: ok.Err}
	default:
		return fmt.Errorf("distsurvey: expected hello_ok, got %q", ok.Type)
	}
	heartbeat := time.Duration(ok.HeartbeatMS) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = DefaultLeaseTTL / 3
	}

	cache := testbed.NewSignCache()
	for {
		if err := w.write(ctx, &Frame{Type: TypeLease}); err != nil {
			return err
		}
		f, err := w.read(ctx)
		if err != nil {
			return err
		}
		switch f.Type {
		case TypeDone:
			return nil
		case TypeJob:
			if err := executeLease[S](ctx, w, f, heartbeat, cfg, cache); err != nil {
				return err
			}
		case TypeError:
			return &HandshakeError{Reason: f.Err}
		default:
			return fmt.Errorf("distsurvey: unexpected frame %q while awaiting a lease", f.Type)
		}
	}
}

// executeLease runs one leased shard, heartbeating while it executes,
// and streams the outcome plus the shard's metrics snapshot back.
func executeLease[S core.Study[P, O, R], P, O core.Sharded, R any](ctx context.Context, w *wireConn, f *Frame, heartbeat time.Duration, cfg WorkerConfig, cache *testbed.SignCache) error {
	var job core.Job[S, P]
	if err := json.Unmarshal(f.Job, &job); err != nil {
		return fmt.Errorf("distsurvey: undecodable job frame: %w", err)
	}
	// A fresh registry per job: its snapshot is exactly this shard's
	// metrics delta, so the coordinator's merge is order-independent.
	reg := obs.NewRegistry()

	hbDone := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// A failed heartbeat is not fatal here: the result write
				// will surface the dead conn to the main loop.
				_ = w.write(ctx, &Frame{Type: TypeHeartbeat})
			case <-hbDone:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
	out, err := core.NewRunner[S](reg, cfg.Trace, cache).Execute(ctx, job)
	close(hbDone)
	hbWG.Wait()
	if err != nil {
		return err
	}
	outcome, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := w.write(ctx, &Frame{
		Type: TypeResult, Shard: job.Plan.ShardIndex(), Outcome: outcome, Obs: reg.Snapshot(),
	}); err != nil {
		return err
	}
	ack, err := w.read(ctx)
	if err != nil {
		return err
	}
	switch ack.Type {
	case TypeResultOK:
	case TypeError:
		return &HandshakeError{Reason: ack.Err}
	default:
		return fmt.Errorf("distsurvey: expected result_ok, got %q", ack.Type)
	}
	// Fold the shard into the worker's own cumulative registry last, so
	// a shard whose result write failed is never half-counted locally.
	if err := cfg.Obs.Merge(reg.Snapshot()); err != nil {
		return err
	}
	return nil
}
