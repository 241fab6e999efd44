package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/core"
	"repro/internal/obs"
)

// This file runs the three batch workloads — the paper's two
// experiments exactly as a user runs them, through core.RunSurvey and
// core.RunResolverStudy. They are closed loops: Workers callers each
// wait for their reply. An op is one domain scanned or one resolver
// probed.

// repOutcome is what one repetition of a batch workload produced.
type repOutcome struct {
	ops, failed int64
	// digest identifies the report; it must not change between reps
	// (the determinism contract).
	digest string
}

// batchWorkload is one batch workload bound to a seed and a size.
type batchWorkload struct {
	// attempted is the number of ops one rep must complete.
	attempted int64
	// setup does what a run does before its first query: resolve the
	// config, plan the jobs, construct the merge and execute layers,
	// and generate and deploy shard 0 (composed from the public pieces,
	// compose.go). Lazy signing is paid inside the run, as users pay it.
	setup func(ctx context.Context) error
	// rep runs the experiment once; reg and tr may be nil.
	rep func(ctx context.Context, reg *obs.Registry, tr *obs.Tracer) (repOutcome, error)
}

func digestOf(v any) (string, error) {
	// encoding/json writes map keys in sorted order, so equal reports
	// give equal bytes.
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

func surveyWorkload(o options) batchWorkload {
	registered, shards := surveyShape(o)
	cfg := core.SurveyConfig{
		Registered: registered, Shards: shards,
		Seed: o.seed, Workers: procs, Signing: core.SigningLazy,
	}
	return batchWorkload{
		attempted: int64(cfg.Registered),
		setup: func(ctx context.Context) error {
			spec, err := cfg.Resolve()
			if err != nil {
				return err
			}
			jobs, err := core.PlanJobs(spec)
			if err != nil {
				return err
			}
			if len(jobs) != cfg.Shards {
				return fmt.Errorf("planned %d shards, want %d", len(jobs), cfg.Shards)
			}
			core.NewReportBuilder(spec)
			core.NewShardRunner(nil, nil, nil)
			shard, err := deploySurveyShard(ctx, o, nil, nil)
			if err != nil {
				return err
			}
			shard.sc.Close()
			return nil
		},
		rep: func(ctx context.Context, reg *obs.Registry, tr *obs.Tracer) (repOutcome, error) {
			c := cfg
			c.Obs, c.Trace = reg, tr
			r, err := core.RunSurvey(ctx, c)
			if err != nil {
				return repOutcome{}, err
			}
			digest, err := digestOf(struct {
				Agg, Operators, TLDs, TLDAgg any
				Iter, Salt                   map[int]int
				UnderID, Errors, Transferred int
			}{r.Agg, r.Operators, r.TLDs, r.TLDAgg, r.IterCDF.Hist(), r.SaltCDF.Hist(),
				r.DomainsUnderIDTLDs, r.ScanErrors, r.TLDZonesTransferred})
			// A failed scan is left out of Agg.Total, so a short total
			// counts as failures even if ScanErrors missed it.
			failed := int64(cfg.Registered - r.Agg.Total)
			if e := int64(r.ScanErrors); e > failed {
				failed = e
			}
			return repOutcome{ops: int64(r.Agg.Total), failed: failed, digest: digest}, err
		},
	}
}

func resolverWorkload(o options) (batchWorkload, error) {
	sz := o.sizes()
	cfg := core.ResolverStudyConfig{
		ScaleDen: sz.resolverScaleDen, Shards: sz.resolverShards,
		Seed: o.seed, Workers: procs,
	}
	spec, err := cfg.Resolve()
	if err != nil {
		return batchWorkload{}, err
	}
	jobs, err := core.PlanResolverJobs(spec)
	if err != nil {
		return batchWorkload{}, err
	}
	fleet := 0
	for _, j := range jobs {
		fleet += j.Plan.Size
	}
	return batchWorkload{
		attempted: int64(fleet),
		setup: func(ctx context.Context) error {
			spec, err := cfg.Resolve()
			if err != nil {
				return err
			}
			if _, err := core.PlanResolverJobs(spec); err != nil {
				return err
			}
			core.NewResolverReportBuilder(spec)
			core.NewResolverShardRunner(nil, nil, nil)
			_, err = deployResolverShard(ctx, o, nil, nil)
			return err
		},
		rep: func(ctx context.Context, reg *obs.Registry, tr *obs.Tracer) (repOutcome, error) {
			c := cfg
			c.Obs, c.Trace = reg, tr
			r, err := core.RunResolverStudy(ctx, c)
			if err != nil {
				return repOutcome{}, err
			}
			digest, err := digestOf(struct {
				Series, PerQuadrant, Overall, Deployed, Population any
				Failures                                           int
			}{r.Series, r.PerQuadrant, r.Overall, r.Deployed, r.Population, r.ProbeFailures})
			failed := int64(fleet - r.Overall.Probed)
			if e := int64(r.ProbeFailures); e > failed {
				failed = e
			}
			return repOutcome{ops: int64(r.Overall.Probed), failed: failed, digest: digest}, err
		},
	}, nil
}

func batchFor(o options) (batchWorkload, error) {
	if o.workload == wResolverStudy {
		return resolverWorkload(o)
	}
	return surveyWorkload(o), nil
}

// medianSetup times setup at least min times, going on until budget is
// spent (a short set-up needs many samples for a steady median), and
// returns the median, so one slow start does not set the figure, over
// the pace the reference kernel kept meanwhile.
func medianSetup(ctx context.Context, ref *reference, min int, budget time.Duration, setup func(context.Context) error) (float64, error) {
	var times []float64
	pacer := ref.startPacer()
	defer pacer.pace() // stops the pacer on the error paths
	start := time.Now()
	for len(times) < min || (time.Since(start) < budget && len(times) < 500) {
		t0 := time.Now()
		if err := setup(ctx); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return stats.Median(times) / pacer.pace(), nil
}

// repStats is one timed repetition.
type repStats struct {
	repOutcome
	use usage
	// pace is the box's speed while the rep ran (reference.go); a rep's
	// wall time over its pace is what it would have taken on the
	// reference box on a good day.
	pace float64
}

func (r repStats) throughput() float64 { return float64(r.ops) / r.use.wall.Seconds() }

// pacedSeconds is the rep's wall time at the reference box's speed.
func (r repStats) pacedSeconds() float64 { return r.use.wall.Seconds() / r.pace }

// timedRep collects garbage left by whatever ran before, so every rep
// starts from the same heap, then runs and measures one repetition,
// with the reference kernel keeping pace beside it.
func timedRep(ctx context.Context, b batchWorkload, ref *reference, reg *obs.Registry, tr *obs.Tracer) (repStats, error) {
	runtime.GC()
	before := snap()
	pacer := ref.startPacer()
	out, err := b.rep(ctx, reg, tr)
	pace := pacer.pace()
	after := snap()
	return repStats{repOutcome: out, use: before.until(after), pace: pace}, err
}

// batchReps runs at least minReps repetitions and goes on until
// seconds have been measured, checking every rep as it goes.
func batchReps(ctx context.Context, b batchWorkload, ref *reference, minReps int, seconds float64, log io.Writer) (reps []repStats, m *measured, err error) {
	m = &measured{correct: true, values: make(map[string]float64)}
	var elapsed time.Duration
	for len(reps) < minReps || elapsed.Seconds() < seconds {
		r, err := timedRep(ctx, b, ref, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		if r.ops == 0 {
			return nil, nil, fmt.Errorf("rep %d completed no ops", len(reps)+1)
		}
		reps = append(reps, r)
		elapsed += r.use.wall
		m.attempted += b.attempted
		m.failed += r.failed
		if r.ops != b.attempted {
			fmt.Fprintf(log, "bench: rep %d completed %d ops, want %d\n", len(reps), r.ops, b.attempted)
			m.correct = false
		}
		if r.digest != reps[0].digest {
			fmt.Fprintf(log, "bench: rep %d report digest %s differs from rep 1's %s\n", len(reps), r.digest, reps[0].digest)
			m.correct = false
		}
		fmt.Fprintf(log, "bench: rep %d: %d ops in %.3fs = %.1f ops/s at pace %.3f, digest %s\n",
			len(reps), r.ops, r.use.wall.Seconds(), r.throughput(), r.pace, r.digest)
	}
	return reps, m, nil
}

func runBatch(ctx context.Context, o options, log io.Writer) (*measured, error) {
	b, err := batchFor(o)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceBatch(ctx, o, b, log)
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	setup, err := medianSetup(ctx, ref, o.sizes().batchSetups, time.Duration(o.seconds/10*float64(time.Second)), b.setup)
	if err != nil {
		return nil, err
	}
	reps, m, err := batchReps(ctx, b, ref, 3, o.seconds, log)
	if err != nil {
		return nil, err
	}
	var paced, allocs, kb []float64
	for _, r := range reps {
		paced = append(paced, r.pacedSeconds())
		allocs = append(allocs, float64(r.use.mallocs)/float64(r.ops))
		kb = append(kb, float64(r.use.allocBytes)/1024/float64(r.ops))
	}
	// What is left after the pace is taken out is bursts too short for
	// it, and those only ever slow a rep down: the time a quarter of
	// the reps beat says more about the program, and less about the
	// box's other tenants, than the median does.
	ops := float64(b.attempted)
	fast := ops / stats.Quartile(paced, 1)
	m.values["throughput_ops_s"] = fast
	// A batch run exposes no per-op timing, so latency here is the
	// residence time Little's law gives a closed loop of procs callers,
	// callers ÷ throughput: at the rate above, and at the median rep's
	// rate for the tail. (The slowest of a handful of reps would be the
	// box's worst moment, not the program's.)
	m.values["latency_p50_us"] = procs * 1e6 / fast
	m.values["latency_p99_us"] = procs * 1e6 * stats.Median(paced) / ops
	m.values["allocs_per_op"] = stats.Median(allocs)
	m.values["alloc_kb_per_op"] = stats.Median(kb)
	m.values["peak_rss_mb"] = peakRSSMB()
	m.values["setup_s"] = setup
	return m, nil
}
