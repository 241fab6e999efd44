package core

import (
	"context"
	"fmt"

	"repro/internal/dnssec"
	"repro/internal/obs"
	"repro/internal/testbed"
)

// This file is the study engine: the one plan → execute → merge
// machine both experiments run on.
//
//   - Plan turns a resolved spec into serializable Jobs — any process
//     holding a job can execute that shard.
//   - Runner.Execute refuses jobs whose hash disagrees with their spec,
//     prepares the study's executor once per spec, and runs one job
//     into a serializable outcome.
//   - Builder folds outcomes — in any order, each shard exactly once —
//     into the final report.
//
// Run is the thin in-process client: plan, execute each job
// sequentially, merge. internal/distsurvey is the multi-process client
// of the same three layers. A study (the §4.1 survey in engine.go, the
// §4.2 resolver study in resolverstudy.go) contributes only what
// genuinely differs: how its spec splits into shard plans, the body
// that executes one plan, and the body that folds one outcome.

// Sharded constrains what belongs to exactly one shard — a shard plan
// or a shard outcome. Comparable so the engine can refuse a zero
// (absent) outcome before asking it for its index.
type Sharded interface {
	comparable
	ShardIndex() int
}

// Study is the contract one experiment supplies to the engine,
// implemented by its resolved, serializable spec: P is its shard plan,
// O its shard outcome, R its report. The hooks are unexported — the
// set of studies is closed over this package; everything else drives
// a study through Plan, NewRunner, NewBuilder, and Run.
type Study[P, O Sharded, R any] interface {
	comparable
	// String names the study and its size for banners and logs.
	fmt.Stringer
	// Hash identifies which study a job, checkpoint, or state directory
	// belongs to. Preimages are disjoint between study kinds.
	Hash() string

	// shardPlans splits the study into index-pure shard plans.
	shardPlans() ([]P, error)
	// newExecutor prepares what every shard of this study shares within
	// one process: the planner and the obs counters.
	newExecutor(e env) (executor[P, O], error)
	// newAccum starts an empty report.
	newAccum() accum[O, R]
}

// executor runs one shard plan of the study it was prepared for. The
// outcome depends only on the plan, never on which process or in which
// order shards execute.
type executor[P, O any] interface {
	execute(ctx context.Context, plan P) (O, error)
}

// accum is a report under construction: fold is called once per
// shard, in any order; finish computes the derived figures.
type accum[O, R any] interface {
	fold(o O)
	finish() R
}

// env is the process-local attachment set shard execution runs with:
// metrics and phase spans (both may be nil), the sign cache
// deduplicating zone signing across the shards one process executes,
// and its read-side twin, the memo deduplicating signature checks
// across every resolver those shards deploy.
type env struct {
	reg   *obs.Registry
	trace *obs.Tracer
	cache *testbed.SignCache
	memo  *dnssec.VerifyMemo
}

// Job is the pure, serializable description of one unit of work: which
// study (Spec + ConfigHash) and which slice of it (Plan).
type Job[S any, P Sharded] struct {
	Spec S `json:"spec"`
	Plan P `json:"plan"`
	// ConfigHash is Spec.Hash(), carried explicitly so executors can
	// refuse jobs from a different study without trusting the wire.
	ConfigHash string `json:"config_hash"`
}

// Plan splits the study described by spec into one Job per shard. Jobs
// are independent: each can be executed by any process, in any order.
func Plan[S Study[P, O, R], P, O Sharded, R any](spec S) ([]Job[S, P], error) {
	plans, err := spec.shardPlans()
	if err != nil {
		return nil, err
	}
	hash := spec.Hash()
	jobs := make([]Job[S, P], len(plans))
	for i, pl := range plans {
		jobs[i] = Job[S, P]{Spec: spec, Plan: pl, ConfigHash: hash}
	}
	return jobs, nil
}

// Runner executes a study's Jobs within one process. Execute is
// sequential; a runner is not safe for concurrent Execute calls.
type Runner[S Study[P, O, R], P, O Sharded, R any] struct {
	env env
	// exec is the executor prepared for spec, cached across Execute
	// calls; a job from a different study rebuilds it.
	spec S
	exec executor[P, O]
}

// NewRunner prepares a runner whose metrics land in reg and whose phase
// spans land in trace (both may be nil). The cache may be nil for a
// fresh sign cache. Every runner owns a fresh signature-verification
// memo, so verdicts are shared within a run and never across runs.
func NewRunner[S Study[P, O, R], P, O Sharded, R any](reg *obs.Registry, trace *obs.Tracer, cache *testbed.SignCache) *Runner[S, P, O, R] {
	if cache == nil {
		cache = testbed.NewSignCache()
	}
	return &Runner[S, P, O, R]{env: env{reg: reg, trace: trace, cache: cache, memo: dnssec.NewVerifyMemo(reg)}}
}

// Execute runs one job end to end and returns the shard's serializable
// outcome. A job whose carried hash disagrees with its spec is refused:
// the wire can feed an executor anything.
func (run *Runner[S, P, O, R]) Execute(ctx context.Context, job Job[S, P]) (O, error) {
	var none O
	if want := job.Spec.Hash(); job.ConfigHash != "" && job.ConfigHash != want {
		return none, fmt.Errorf("core: shard job %d carries config hash %s, spec hashes to %s",
			job.Plan.ShardIndex(), job.ConfigHash, want)
	}
	if run.exec == nil || run.spec != job.Spec {
		exec, err := job.Spec.newExecutor(run.env)
		if err != nil {
			return none, err
		}
		run.exec, run.spec = exec, job.Spec
	}
	return run.exec.execute(ctx, job.Plan)
}

// DuplicateShardError is the typed rejection Builder.Add returns when
// a shard's outcome arrives twice — the enforcement point that a
// resumed or re-leased study never double-merges.
type DuplicateShardError struct {
	Index int
}

func (e *DuplicateShardError) Error() string {
	return fmt.Sprintf("core: shard %d already merged into the report", e.Index)
}

// Builder folds shard outcomes into the study's report. Add accepts
// outcomes in any order but each shard index exactly once.
type Builder[O Sharded, R any] struct {
	acc    accum[O, R]
	merged map[int]bool
}

// NewBuilder prepares an empty report for the study described by spec.
func NewBuilder[S Study[P, O, R], P, O Sharded, R any](spec S) *Builder[O, R] {
	return &Builder[O, R]{acc: spec.newAccum(), merged: make(map[int]bool)}
}

// Add merges one shard's outcome. A second outcome for the same shard
// returns *DuplicateShardError and changes nothing.
func (b *Builder[O, R]) Add(o O) error {
	var none O
	if o == none {
		return fmt.Errorf("core: nil shard outcome")
	}
	index := o.ShardIndex()
	if b.merged[index] {
		return &DuplicateShardError{Index: index}
	}
	b.merged[index] = true
	b.acc.fold(o)
	return nil
}

// Merged reports whether the shard's outcome has already been added.
func (b *Builder[O, R]) Merged(index int) bool { return b.merged[index] }

// MergedCount returns how many distinct shards have been added.
func (b *Builder[O, R]) MergedCount() int { return len(b.merged) }

// Finish computes the derived figures and returns the report.
func (b *Builder[O, R]) Finish() R { return b.acc.finish() }

// Run runs the whole study in-process: plan the shard jobs, execute
// each sequentially (signing shared through one cache), and merge each
// outcome before the next shard is touched, so peak memory is bounded
// by one shard. The distributed coordinator/worker runner drives the
// exact same layers, so both modes produce byte-identical reports.
func Run[S Study[P, O, R], P, O Sharded, R any](ctx context.Context, spec S, reg *obs.Registry, trace *obs.Tracer) (R, error) {
	var none R
	jobs, err := Plan(spec)
	if err != nil {
		return none, err
	}
	builder := NewBuilder(spec)
	runner := NewRunner[S](reg, trace, nil)
	for _, job := range jobs {
		out, err := runner.Execute(ctx, job)
		if err != nil {
			return none, err
		}
		if err := builder.Add(out); err != nil {
			return none, err
		}
	}
	return builder.Finish(), nil
}
