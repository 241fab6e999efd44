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
)

// DefaultLeaseTTL is how long a worker's connection may stay silent —
// no heartbeat, no result — before the coordinator drops it and
// re-leases its shard. Workers heartbeat at a third of this.
const DefaultLeaseTTL = 10 * time.Second

// CoordinatorConfig describes one coordinated run of the study S.
type CoordinatorConfig[S any] struct {
	// Spec is the resolved study. Workers must present the same hash.
	Spec S
	// Obs receives the merged metrics: worker shard snapshots plus the
	// coordinator's own lease counters. May be nil.
	Obs *obs.Registry
	// StateDir, when non-empty, holds crash-safe per-shard checkpoints;
	// Resume picks up a previous run's completed shards from it.
	StateDir string
	Resume   bool
	// LeaseTTL overrides DefaultLeaseTTL (tests use short TTLs).
	LeaseTTL time.Duration
}

// Config is the survey's CoordinatorConfig, the spelling the benchmark
// module (bench/) compiles against.
type Config = CoordinatorConfig[core.SurveySpec]

// Coordinator leases a study's shard jobs to workers, merges their
// outcomes (O) into the study's report (R), and checkpoints every
// completed shard before acknowledging it.
type Coordinator[O core.Sharded, R any] struct {
	hash     string
	reg      *obs.Registry
	store    *Store[O]
	leaseTTL time.Duration

	mu      sync.Mutex
	jobs    map[int]json.RawMessage // encoded core.Jobs, not yet merged
	leased  map[int]bool            // held by a live connection
	builder *core.Builder[O, R]
	loaded  int           // shards recovered from checkpoints at startup
	wake    chan struct{} // closed+replaced when a shard becomes grantable
	done    chan struct{} // closed once every shard is merged

	mGranted  *obs.Counter
	mExpired  *obs.Counter
	mRejected *obs.Counter
	mLoaded   *obs.Counter
	mSkipped  *obs.Counter
	mWorkers  *obs.Counter
}

// CheckpointsLoaded reports how many completed shards the coordinator
// recovered from the state directory at startup.
func (c *Coordinator[O, R]) CheckpointsLoaded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loaded
}

// NewCoordinator plans the study, recovers any checkpointed shards,
// and prepares to serve workers. With a StateDir it refuses mixed
// state via *StateMismatchError / *StateExistsError; Resume without a
// StateDir is refused, since there is nothing to resume from.
func NewCoordinator[S core.Study[P, O, R], P, O core.Sharded, R any](cfg CoordinatorConfig[S]) (*Coordinator[O, R], error) {
	if cfg.Resume && cfg.StateDir == "" {
		return nil, fmt.Errorf("distsurvey: Resume needs a StateDir to resume from")
	}
	jobs, err := core.Plan(cfg.Spec)
	if err != nil {
		return nil, err
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	reg := cfg.Obs
	c := &Coordinator[O, R]{
		hash:      cfg.Spec.Hash(),
		reg:       reg,
		leaseTTL:  ttl,
		jobs:      make(map[int]json.RawMessage, len(jobs)),
		leased:    make(map[int]bool),
		builder:   core.NewBuilder(cfg.Spec),
		wake:      make(chan struct{}),
		done:      make(chan struct{}),
		mGranted:  reg.Counter("distsurvey_leases_granted_total", "shard leases granted to workers (including re-leases)"),
		mExpired:  reg.Counter("distsurvey_leases_expired_total", "shard leases reclaimed after heartbeat timeout or worker disconnect"),
		mRejected: reg.Counter("distsurvey_results_rejected_total", "results for a shard the sending connection does not hold"),
		mLoaded:   reg.Counter("distsurvey_checkpoints_loaded_total", "completed shards recovered from the state dir on startup"),
		mSkipped:  reg.Counter("distsurvey_checkpoints_skipped_total", "corrupt or mismatched checkpoint files ignored on startup"),
		mWorkers:  reg.Counter("distsurvey_workers_connected_total", "workers that completed the hello handshake"),
	}
	for _, job := range jobs {
		data, err := json.Marshal(job)
		if err != nil {
			return nil, err
		}
		c.jobs[job.Plan.ShardIndex()] = data
	}
	if cfg.StateDir != "" {
		store, cps, skipped, err := OpenStore(cfg.StateDir, cfg.Spec, cfg.Resume)
		if err != nil {
			return nil, err
		}
		c.store = store
		c.mSkipped.Add(uint64(skipped))
		for _, cp := range cps {
			index := cp.Outcome.ShardIndex()
			if _, live := c.jobs[index]; !live || c.builder.Merged(index) {
				c.mSkipped.Inc()
				continue
			}
			if err := c.builder.Add(cp.Outcome); err != nil {
				return nil, fmt.Errorf("distsurvey: replaying checkpoint for shard %d: %w", index, err)
			}
			if err := c.reg.Merge(cp.Obs); err != nil {
				return nil, fmt.Errorf("distsurvey: replaying checkpoint metrics for shard %d: %w", index, err)
			}
			delete(c.jobs, index)
			c.loaded++
			c.mLoaded.Inc()
		}
	}
	if len(c.jobs) == 0 {
		close(c.done)
	}
	return c, nil
}

// Serve accepts worker connections on ln until every shard is merged
// (or ctx is cancelled, or the listener dies with shards outstanding),
// then returns the finished report. Serve owns the listener and closes
// it on the way out.
func (c *Coordinator[O, R]) Serve(ctx context.Context, ln net.Listener) (R, error) {
	var none R
	var wg sync.WaitGroup
	finished := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
		case <-c.done:
		case <-finished:
		}
		// Closing the listener is the one shutdown signal Accept obeys.
		_ = ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.handleConn(ctx, conn)
		}()
	}
	close(finished)
	wg.Wait()

	select {
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.builder.Finish(), nil
	default:
	}
	if err := ctx.Err(); err != nil {
		return none, err
	}
	c.mu.Lock()
	remaining := len(c.jobs)
	c.mu.Unlock()
	return none, fmt.Errorf("distsurvey: listener closed with %d shard(s) unmerged", remaining)
}

// handleConn speaks the worker protocol on one connection, which holds
// at most one lease and holds it until the handler exits or its result
// merges. Every read re-arms a lease-TTL deadline on the connection, so
// a silent worker — no heartbeat, no result — unblocks the handler, and
// cancelling ctx closes the connection; either way the handler exits
// and releases the lease for re-granting.
func (c *Coordinator[O, R]) handleConn(ctx context.Context, conn net.Conn) {
	defer func() {
		// Connection death is the fast re-lease path: no need to wait
		// for the TTL when the socket already told us the worker is gone.
		_ = conn.Close()
	}()
	stop := context.AfterFunc(ctx, func() {
		_ = conn.Close() // Serve is ending: this only fails the handler's blocked read or write
	})
	defer stop()
	w := &wireConn{conn: conn}
	held := -1
	defer func() {
		if held >= 0 {
			c.release(held)
		}
	}()

	hello, err := c.readDeadline(ctx, w)
	if err != nil || hello.Type != TypeHello {
		return
	}
	if hello.Version != ProtocolVersion {
		_ = w.write(ctx, &Frame{Type: TypeError, Err: fmt.Sprintf("protocol version %d, coordinator speaks %d", hello.Version, ProtocolVersion)}) // refusal best-effort: the conn is being dropped
		return
	}
	if hello.ConfigHash != c.hash {
		_ = w.write(ctx, &Frame{Type: TypeError, Err: fmt.Sprintf("config hash %s, coordinator runs %s — start the worker with the same study flags", hello.ConfigHash, c.hash)}) // refusal best-effort: the conn is being dropped
		return
	}
	hbMS := int(c.leaseTTL.Milliseconds() / 3)
	if hbMS < 1 {
		hbMS = 1
	}
	if err := w.write(ctx, &Frame{Type: TypeHelloOK, Version: ProtocolVersion, HeartbeatMS: hbMS}); err != nil {
		return
	}
	c.mWorkers.Inc()

	for {
		f, err := c.readDeadline(ctx, w)
		if err != nil {
			return
		}
		switch f.Type {
		case TypeLease:
			if held >= 0 {
				return // one lease per connection: a second request is a broken worker
			}
			// Held from the grant on: any failure below releases it on exit.
			var job json.RawMessage
			held, job, err = c.acquire(ctx)
			if err != nil {
				return
			}
			// acquire may have waited longer than a TTL for a free shard.
			if err := c.arm(conn); err != nil {
				return
			}
			if job == nil {
				_ = w.write(ctx, &Frame{Type: TypeDone}) // worker is leaving either way
				return
			}
			if err := w.write(ctx, &Frame{Type: TypeJob, Job: job}); err != nil {
				return
			}
		case TypeHeartbeat:
			// The read itself re-armed the deadline.
		case TypeResult:
			if held < 0 || f.Shard != held {
				c.mRejected.Inc()
				_ = w.write(ctx, &Frame{Type: TypeError, Err: fmt.Sprintf("result for shard %d, which this connection does not hold", f.Shard)}) // refusal best-effort: the conn is being dropped
				return
			}
			if err := c.complete(f); err != nil {
				_ = w.write(ctx, &Frame{Type: TypeError, Err: err.Error()}) // coordinator-side failure; conn is dropped
				return
			}
			held = -1
			if err := w.write(ctx, &Frame{Type: TypeResultOK, Shard: f.Shard}); err != nil {
				return
			}
		default:
			return
		}
	}
}

// arm gives the connection one lease TTL to make progress, reading or
// writing. A dead-but-connected worker cannot pin its handler (or its
// lease) forever; heartbeats arrive at a third of the TTL, keeping
// live workers comfortably inside it.
func (c *Coordinator[O, R]) arm(conn net.Conn) error {
	return conn.SetDeadline(time.Now().Add(c.leaseTTL))
}

// readDeadline arms the connection's deadline and reads one frame.
func (c *Coordinator[O, R]) readDeadline(ctx context.Context, w *wireConn) (*Frame, error) {
	if err := c.arm(w.conn); err != nil {
		return nil, err
	}
	return w.read(ctx)
}

// acquire blocks until a shard is grantable, every shard is merged (nil
// job), or ctx is cancelled. It leases the lowest-index free shard so
// runs are easy to reason about.
func (c *Coordinator[O, R]) acquire(ctx context.Context) (int, json.RawMessage, error) {
	for {
		c.mu.Lock()
		free := -1
		for index := range c.jobs {
			if !c.leased[index] && (free < 0 || index < free) {
				free = index
			}
		}
		if free >= 0 {
			c.leased[free] = true
			c.mGranted.Inc()
			job := c.jobs[free]
			c.mu.Unlock()
			return free, job, nil
		}
		wake := c.wake
		c.mu.Unlock()

		select {
		case <-wake: // a release freed a shard
		case <-c.done:
			return -1, nil, nil
		case <-ctx.Done():
			return -1, nil, ctx.Err()
		}
	}
}

// release returns a connection's lease to the pool when its handler
// exits without the result merged.
func (c *Coordinator[O, R]) release(shard int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leased[shard] {
		delete(c.leased, shard)
		c.mExpired.Inc()
		// Broadcast to every blocked acquire: the shard is grantable.
		close(c.wake)
		c.wake = make(chan struct{})
	}
}

// complete checkpoints and merges the result for a shard the sending
// connection holds. Ordering is the crash-safety contract: the
// checkpoint hits disk before the merge, so a coordinator that dies
// between the two replays the checkpoint on resume rather than losing
// the shard.
func (c *Coordinator[O, R]) complete(f *Frame) error {
	cp := &ShardCheckpoint[O]{Obs: f.Obs}
	if err := json.Unmarshal(f.Outcome, &cp.Outcome); err != nil || absent(cp.Outcome) || cp.Outcome.ShardIndex() != f.Shard {
		return fmt.Errorf("distsurvey: result frame for shard %d carries no matching outcome", f.Shard)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store != nil {
		if err := c.store.Write(cp); err != nil {
			return err
		}
	}
	if err := c.builder.Add(cp.Outcome); err != nil {
		return err
	}
	// No wake: a merge frees no shard, and the last one closes done.
	delete(c.leased, f.Shard)
	delete(c.jobs, f.Shard)
	if len(c.jobs) == 0 {
		close(c.done)
	}
	// The shard is merged and checkpointed; losing its metrics is a loud
	// error but must not strand the shard as forever-pending.
	return c.reg.Merge(f.Obs)
}
