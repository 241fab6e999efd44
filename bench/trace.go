package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bench/internal/span"
	"repro/bench/internal/stats"
	"repro/internal/obs"
	"repro/internal/population"
)

// This file is the traced run. It measures each workload once more,
// three ways, all from outside the program:
//
//   - the experiment itself with an obs.Registry and obs.Tracer on its
//     public Obs/Trace fields (the engines' own counters and phases);
//   - one world composed here from the same public pieces RunSurvey and
//     RunResolverStudy compose, with a decorator on every
//     netsim.Exchanger and netsim.Handler recording a span per call;
//   - the timed loops of layers.go over each layer's public calls.
//
// End-to-end numbers never come from here: tracing costs time, and that
// cost is itself reported as obs.trace_overhead_share.

// finishSlice ends the traced slice: it works out self times, writes
// the spans to trace-<workload>.ndjson, derives the span-based values,
// and holds the trace to the rule that a request's spans account for
// all of its time (within 5 %). It returns the totals by span name.
func finishSlice(o options, rec *span.Recorder, m *measured, log io.Writer) (map[string]span.Totals, error) {
	spans := rec.Finish()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := span.WriteNDJSON(filepath.Join(o.outDir, "trace-"+o.workload+".ndjson"), spans); err != nil {
		return nil, err
	}
	request := make(map[int64]int64, len(spans)) // span ID → its request
	for _, s := range spans {
		request[s.ID] = s.Req
	}
	// A request's root is its one span whose parent belongs to no request.
	rootNS, selfNS := make(map[int64]int64), make(map[int64]int64)
	var requestNS int64
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		selfNS[s.Req] += s.Self
		if request[s.Parent] == 0 {
			rootNS[s.Req] += s.End - s.Start
			requestNS += s.End - s.Start
		}
	}
	var worst float64
	for req, dur := range rootNS {
		if dur > 0 {
			worst = max(worst, math.Abs(float64(selfNS[req]-dur))/float64(dur))
		}
	}
	fmt.Fprintf(log, "bench: %d spans; self times differ from their request's duration by at most %.2f%%\n", len(spans), worst*100)
	if worst > 0.05 {
		m.correct = false
	}
	tot := span.Sum(spans)
	selfPerCall := func(name string) float64 { return ratio(float64(tot[name].SelfNS), float64(tot[name].Count)) / 1e3 }
	m.values["netsim.self_share"] = ratio(float64(tot[spanExchange].SelfNS), float64(requestNS))
	m.values["resolver.self_us_per_query"] = selfPerCall(spanResolver)
	m.values["scanner.self_us_per_domain"] = selfPerCall(spanDomain)
	return tot, nil
}

// phaseSink receives the engines' obs.Tracer spans and sums their
// seconds by phase name.
type phaseSink struct {
	mu      sync.Mutex
	seconds map[string]float64
}

func (p *phaseSink) WriteAny(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var s struct {
		Span    string  `json:"span"`
		Seconds float64 `json:"seconds"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	p.mu.Lock()
	p.seconds[s.Span] += s.Seconds
	p.mu.Unlock()
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// harnessValues reports how the untraced reps used the machine.
func harnessValues(vals map[string]float64, uses []usage, throughputs []float64) {
	var util, gc []float64
	for _, u := range uses {
		util = append(util, u.cpuUtil)
		gc = append(gc, u.gcCPUShare)
	}
	vals["harness.cpu_util"] = stats.Median(util)
	vals["harness.gc_cpu_share"] = stats.Median(gc)
	vals["harness.rep_spread"] = stats.Spread(throughputs)
}

func traceBatch(ctx context.Context, o options, b batchWorkload, log io.Writer) (*measured, error) {
	// Two untraced reps: the baseline the tracing overhead is measured
	// against, and the harness's own figures.
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	reps, m, err := batchReps(ctx, b, ref, 2, 0, log)
	if err != nil {
		return nil, err
	}
	var uses []usage
	var thr, walls, paces []float64
	for _, r := range reps {
		uses = append(uses, r.use)
		thr = append(thr, r.throughput())
		walls = append(walls, r.use.wall.Seconds())
		paces = append(paces, r.pace)
	}
	harnessValues(m.values, uses, thr)
	m.values["harness.pace"] = stats.Median(paces)

	// One rep with the engines' own observability on.
	reg := obs.NewRegistry()
	sink := &phaseSink{seconds: make(map[string]float64)}
	r, err := timedRep(ctx, b, ref, reg, obs.NewTracer(sink))
	if err != nil {
		return nil, err
	}
	m.attempted += b.attempted
	m.failed += r.failed
	if r.digest != reps[0].digest {
		fmt.Fprintf(log, "bench: observed rep's report digest %s differs from the untraced %s\n", r.digest, reps[0].digest)
		m.correct = false
	}
	m.values["obs.trace_overhead_share"] = r.use.wall.Seconds()/stats.Median(walls) - 1
	for _, phase := range []string{"generate", "deploy", "scan", "probe", "merge"} {
		m.values["core."+phase+"_s"] = sink.seconds[phase]
	}
	snapshot := reg.Snapshot()
	c := func(name string) float64 { return float64(snapshot.Counters[name]) }
	m.values["authserver.sign_wait_s"] = snapshot.Histograms["authserver_sign_wait_ns"].Sum / 1e9
	signed, reused := c("survey_zones_signed_total"), c("survey_zones_reused_total")
	if o.workload == wResolverStudy {
		signed, reused = c("resolverstudy_zones_signed_total"), c("resolverstudy_zones_reused_total")
	} else {
		// Shard 0 also pushes the TLD registry through the scanner.
		scans := c("survey_domains_scanned_total") + float64(len(population.GenerateTLDs(o.seed)))
		m.values["scanner.queries_per_domain"] = ratio(c("scanner_queries_total"), scans)
		m.values["scanner.retry_ratio"] = ratio(c("scanner_retries_total"), c("scanner_queries_total"))
		lazy, untouched := c("survey_zones_signed_lazily_total"), c("survey_zones_untouched_total")
		m.values["testbed.lazy_untouched_ratio"] = ratio(untouched, lazy+untouched)
	}
	m.values["testbed.sign_reuse_ratio"] = ratio(reused, signed+reused)

	// The composed slice with a span at every boundary. Its resolvers
	// are constructed here, so they can be handed a registry — the
	// resolver study's own fleet runs without one.
	rec, sliceReg := span.NewRecorder(), obs.NewRegistry()
	sctx, root := rec.Start(ctx, spanSlice)
	var ops, failed int64
	if o.workload == wResolverStudy {
		shard, err := deployResolverShard(sctx, o, rec, sliceReg)
		if err != nil {
			return nil, fmt.Errorf("traced slice: %w", err)
		}
		ops, failed = shard.probe(sctx, rec, o.sizes().sliceResolvers)
	} else {
		shard, err := deploySurveyShard(sctx, o, rec, sliceReg)
		if err != nil {
			return nil, fmt.Errorf("traced slice: %w", err)
		}
		ops, failed = shard.scan(sctx, rec, o.sizes().sliceDomains)
		shard.sc.Close()
	}
	root.End()
	m.attempted += ops
	m.failed += failed
	tot, err := finishSlice(o, rec, m, log)
	if err != nil {
		return nil, err
	}
	sc := func(name string) float64 { return float64(sliceReg.Counter(name, "").Value()) }
	m.values["resolver.upstream_per_query"] = ratio(sc("resolver_upstream_queries_total"), float64(tot[spanResolver].Count))
	m.values["resolver.nsec3_hash_work_per_probe"] = ratio(sc("resolver_nsec3_hash_work_total"), float64(ops))
	hits, misses := sc("resolver_aggressive_hits_total"), sc("resolver_aggressive_misses_total")
	m.values["resolver.aggressive_hit_ratio"] = ratio(hits, hits+misses)
	return m, layerLoops(ctx, o, nil, m.values, log)
}

func traceAuthd(ctx context.Context, o options, log io.Writer) (*measured, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	w, _, err := authdSetup(ctx, o, ref, 1)
	if err != nil {
		return nil, err
	}
	q := newQuerier(w, w.net, ref, o, log)
	seg := time.Duration(o.seconds / 8 * float64(time.Second))
	m := &measured{correct: true, values: make(map[string]float64)}
	ws := q.run(ctx, seg/2, 0, false)
	m.attempted, m.failed = ws.ops, ws.failed

	var uses []usage
	var thr, loadgen, paces []float64
	for i := 0; i < 2; i++ {
		s := q.run(ctx, seg, 0, true)
		m.attempted += s.ops
		m.failed += s.failed
		uses = append(uses, s.use)
		thr = append(thr, s.throughput())
		loadgen = append(loadgen, s.loadgenShare())
		paces = append(paces, s.pace(paceOfRate))
	}
	harnessValues(m.values, uses, thr)
	m.values["harness.loadgen_share"] = stats.Median(loadgen)
	m.values["harness.pace"] = stats.Median(paces)

	// The same loop with a span around Exchange and around Handle.
	rec := span.NewRecorder()
	ex, wrap := decorate(w.net, rec)
	w.net.Register(w.addr, wrap(w.srv, spanAuth))
	q.ex, q.traced = ex, true
	ts := q.run(ctx, 0, o.sizes().sliceQueries, true)
	w.net.Register(w.addr, w.srv)
	m.attempted += ts.ops
	m.failed += ts.failed
	m.values["obs.trace_overhead_share"] = stats.Median(thr)/ts.throughput() - 1
	if _, err := finishSlice(o, rec, m, log); err != nil {
		return nil, err
	}
	return m, layerLoops(ctx, o, w, m.values, log)
}
