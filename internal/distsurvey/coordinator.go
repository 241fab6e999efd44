package distsurvey

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultLeaseTTL is how long a leased shard may go without a
// heartbeat before the coordinator re-leases it. Workers heartbeat at
// a third of this.
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

// lease tracks one outstanding shard grant. Epochs make grants
// distinguishable: a result stamped with a superseded epoch is stale
// and rejected, so a re-leased shard can never merge twice.
type lease struct {
	epoch    uint64
	deadline time.Time
}

// Coordinator leases a study's shard jobs to workers, merges their
// outcomes (O) into the study's report (R), and checkpoints every
// completed shard before acknowledging it.
type Coordinator[O core.Sharded, R any] struct {
	hash     string
	reg      *obs.Registry
	store    *Store[O]
	leaseTTL time.Duration

	mu        sync.Mutex
	jobs      map[int]json.RawMessage // encoded core.Jobs, not yet merged
	leases    map[int]*lease          // currently granted
	nextEpoch uint64
	builder   *core.Builder[O, R]
	loaded    int           // shards recovered from checkpoints at startup
	wake      chan struct{} // closed+replaced when a shard becomes grantable
	done      chan struct{} // closed once every shard is merged

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
// state via *StateMismatchError / *StateExistsError.
func NewCoordinator[S core.Study[P, O, R], P, O core.Sharded, R any](cfg CoordinatorConfig[S]) (*Coordinator[O, R], error) {
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
		leases:    make(map[int]*lease),
		builder:   core.NewBuilder(cfg.Spec),
		wake:      make(chan struct{}),
		done:      make(chan struct{}),
		mGranted:  reg.Counter("distsurvey_leases_granted_total", "shard leases granted to workers (including re-leases)"),
		mExpired:  reg.Counter("distsurvey_leases_expired_total", "shard leases reclaimed after heartbeat timeout or worker disconnect"),
		mRejected: reg.Counter("distsurvey_results_rejected_total", "shard results refused as stale or duplicate"),
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
			if err := c.reg.AddSnapshot(cp.Obs); err != nil {
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

// handleConn speaks the worker protocol on one connection. Every read
// is armed with a lease-TTL deadline, so a silent worker — no
// heartbeat, no result — unblocks the handler, which then releases any
// lease the worker still holds for re-granting.
func (c *Coordinator[O, R]) handleConn(ctx context.Context, conn net.Conn) {
	defer func() {
		// Connection death is the fast re-lease path: no need to wait
		// for the TTL when the socket already told us the worker is gone.
		_ = conn.Close()
	}()
	w := &wireConn{conn: conn}
	heldShard, heldEpoch := -1, uint64(0)
	defer func() {
		if heldShard >= 0 {
			c.release(heldShard, heldEpoch)
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
			g, err := c.acquire(ctx)
			if err != nil {
				return
			}
			if g == nil {
				_ = w.write(ctx, &Frame{Type: TypeDone}) // worker is leaving either way
				return
			}
			if err := w.write(ctx, &Frame{Type: TypeJob, Lease: g.epoch, Job: g.job}); err != nil {
				return
			}
			heldShard, heldEpoch = g.shard, g.epoch
		case TypeHeartbeat:
			c.extend(f.Shard, f.Lease)
		case TypeResult:
			accepted, err := c.complete(f)
			if heldShard == f.Shard {
				heldShard, heldEpoch = -1, 0
			}
			if err != nil {
				_ = w.write(ctx, &Frame{Type: TypeError, Err: err.Error()}) // coordinator-side failure; conn is dropped
				return
			}
			if err := w.write(ctx, &Frame{Type: TypeResultOK, Shard: f.Shard, Accepted: accepted}); err != nil {
				return
			}
		default:
			return
		}
	}
}

// readDeadline reads one frame with a lease-TTL deadline armed, so a
// dead-but-connected worker cannot pin its handler (or its lease)
// forever. Heartbeats arrive at a third of the TTL, keeping live
// workers comfortably inside it.
func (c *Coordinator[O, R]) readDeadline(ctx context.Context, w *wireConn) (*Frame, error) {
	if err := w.conn.SetReadDeadline(time.Now().Add(c.leaseTTL)); err != nil {
		return nil, err
	}
	return w.read(ctx)
}

// grant is one lease as handed to a worker: the shard, its fresh epoch,
// and the encoded job to send.
type grant struct {
	shard int
	epoch uint64
	job   json.RawMessage
}

// acquire blocks until a shard is grantable, every shard is merged
// (nil grant), or ctx is cancelled. Grants go lowest-index-first so
// runs are easy to reason about.
func (c *Coordinator[O, R]) acquire(ctx context.Context) (*grant, error) {
	for {
		c.mu.Lock()
		now := time.Now()
		c.expireLocked(now)
		if g := c.grantLocked(now); g != nil {
			c.mu.Unlock()
			return g, nil
		}
		if len(c.jobs) == 0 {
			c.mu.Unlock()
			return nil, nil
		}
		wake := c.wake
		wait := c.nextDeadlineLocked(now)
		c.mu.Unlock()

		timer := time.NewTimer(wait)
		select {
		case <-wake: // a release or merge changed the board
		case <-c.done:
			timer.Stop()
			return nil, nil
		case <-timer.C: // earliest lease deadline passed; re-scan
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
		timer.Stop()
	}
}

// expireLocked reclaims leases whose deadline has passed. The lease
// row is deleted but its epoch stays burned: a result from the expired
// grant no longer matches any live lease and is rejected.
func (c *Coordinator[O, R]) expireLocked(now time.Time) {
	for index, l := range c.leases {
		if now.After(l.deadline) {
			delete(c.leases, index)
			c.mExpired.Inc()
		}
	}
}

// grantLocked leases the lowest-index unleased, unmerged shard, or
// returns nil when none is free.
func (c *Coordinator[O, R]) grantLocked(now time.Time) *grant {
	indexes := make([]int, 0, len(c.jobs))
	for index := range c.jobs {
		if c.leases[index] == nil {
			indexes = append(indexes, index)
		}
	}
	if len(indexes) == 0 {
		return nil
	}
	sort.Ints(indexes)
	index := indexes[0]
	c.nextEpoch++
	c.leases[index] = &lease{epoch: c.nextEpoch, deadline: now.Add(c.leaseTTL)}
	c.mGranted.Inc()
	return &grant{shard: index, epoch: c.nextEpoch, job: c.jobs[index]}
}

// nextDeadlineLocked returns how long acquire may sleep before a lease
// could expire. With no leases outstanding the wake channel is the
// only signal, so sleep a full TTL and re-scan.
func (c *Coordinator[O, R]) nextDeadlineLocked(now time.Time) time.Duration {
	wait := c.leaseTTL
	for _, l := range c.leases {
		if d := l.deadline.Sub(now); d < wait {
			wait = d
		}
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// extend pushes a live lease's deadline out by one TTL. Stale epochs
// (the shard was re-leased) and unknown shards are ignored.
func (c *Coordinator[O, R]) extend(shard int, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.leases[shard]; l != nil && l.epoch == epoch {
		l.deadline = time.Now().Add(c.leaseTTL)
	}
}

// release returns a still-held lease to the pool (worker disconnected
// mid-shard). The epoch check means a release races safely with the
// same shard's re-lease to another worker.
func (c *Coordinator[O, R]) release(shard int, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.leases[shard]; l != nil && l.epoch == epoch {
		delete(c.leases, shard)
		c.mExpired.Inc()
		c.wakeLocked()
	}
}

// complete checkpoints and merges one shard result. Ordering is the
// crash-safety contract: the checkpoint hits disk before the merge, so
// a coordinator that dies between the two replays the checkpoint on
// resume rather than losing the shard. Stale-epoch and duplicate
// results are rejected (accepted=false) without touching the report.
func (c *Coordinator[O, R]) complete(f *Frame) (bool, error) {
	cp := &ShardCheckpoint[O]{Obs: f.Obs}
	if err := json.Unmarshal(f.Outcome, &cp.Outcome); err != nil || absent(cp.Outcome) || cp.Outcome.ShardIndex() != f.Shard {
		return false, fmt.Errorf("distsurvey: result frame for shard %d carries no matching outcome", f.Shard)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[f.Shard]
	if l == nil || l.epoch != f.Lease || c.builder.Merged(f.Shard) {
		c.mRejected.Inc()
		return false, nil
	}
	if c.store != nil {
		if err := c.store.Write(cp); err != nil {
			return false, err
		}
	}
	if err := c.builder.Add(cp.Outcome); err != nil {
		return false, err
	}
	delete(c.leases, f.Shard)
	delete(c.jobs, f.Shard)
	c.wakeLocked()
	if len(c.jobs) == 0 {
		close(c.done)
	}
	if err := c.reg.AddSnapshot(f.Obs); err != nil {
		// The shard is merged and checkpointed; losing its metrics is a
		// loud error but must not strand the shard as forever-pending.
		return true, err
	}
	return true, nil
}

// wakeLocked broadcasts a board change to every blocked acquire.
func (c *Coordinator[O, R]) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}
