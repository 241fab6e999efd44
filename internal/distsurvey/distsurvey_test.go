package distsurvey

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/respop"
	"repro/internal/testbed"
)

// Every test runs the same small survey so the two in-process golden
// runs (Shards=1 and Shards=3) are computed once per test binary.
const (
	goldenRegistered = 240
	goldenSeed       = 7
	goldenShards     = 3
)

var (
	goldenOnce sync.Once
	goldenErr  error
	// goldenR1 is the Shards=1 report — the strongest equivalence
	// target. goldenR3/goldenReg3 are the Shards=3 in-process run,
	// whose per-shard structure matches the distributed run exactly,
	// making its structural counters directly comparable.
	goldenR1, goldenR3 *core.SurveyReport
	goldenReg3         *obs.Registry
)

func golden(t *testing.T) (*core.SurveyReport, *core.SurveyReport, *obs.Registry) {
	t.Helper()
	goldenOnce.Do(func() {
		ctx := context.Background()
		goldenR1, goldenErr = core.RunSurvey(ctx, core.SurveyConfig{
			Registered: goldenRegistered, Seed: goldenSeed, Shards: 1,
		})
		if goldenErr != nil {
			return
		}
		goldenReg3 = obs.NewRegistry()
		goldenR3, goldenErr = core.RunSurvey(ctx, core.SurveyConfig{
			Registered: goldenRegistered, Seed: goldenSeed, Shards: goldenShards, Obs: goldenReg3,
		})
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenR1, goldenR3, goldenReg3
}

func goldenSpec(t *testing.T) core.SurveySpec {
	t.Helper()
	spec, err := core.SurveyConfig{
		Registered: goldenRegistered, Seed: goldenSeed, Shards: goldenShards,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// renderReport turns a report into the user-visible bytes, the
// "byte-identical" half of the golden equivalence contract.
func renderReport(r *core.SurveyReport) string {
	var b bytes.Buffer
	analysis.RenderCDF(&b, "iter", r.IterCDF, []int{0, 25, 500})
	analysis.RenderCDF(&b, "salt", r.SaltCDF, []int{0, 8, 16})
	analysis.RenderOperatorTable(&b, r.Operators.Top(10))
	fmt.Fprintf(&b, "errors=%d under_id=%d axfr=%d\n",
		r.ScanErrors, r.DomainsUnderIDTLDs, r.TLDZonesTransferred)
	return b.String()
}

func counterValue(reg *obs.Registry, name string) uint64 {
	return reg.Counter(name, "").Value()
}

// structuralCounters are the metrics that must merge to the same
// totals whether shards run in one process or many. (Sign-cache
// counters legitimately differ: each process has its own cache.)
var structuralCounters = []string{
	"survey_domains_scanned_total",
	"survey_nsec3_iteration_work_total",
	"scanner_queries_total",
	"survey_shards_completed_total",
}

// The smallest resolver study worth distributing: ScaleDen 2000 gives
// ~200 resolvers across the four quadrants. Three shards, like the
// survey, so a killed coordinator leaves one behind to resume.
const (
	rsScaleDen = 2000
	rsSeed     = 5
	rsShards   = 3
)

var (
	rsOnce     sync.Once
	rsErr      error
	rsR1, rsR3 *core.ResolverStudyReport
	rsReg3     *obs.Registry
)

// resolverGolden is golden for the §4.2 resolver study.
func resolverGolden(t *testing.T) (*core.ResolverStudyReport, *core.ResolverStudyReport, *obs.Registry) {
	t.Helper()
	rsOnce.Do(func() {
		ctx := context.Background()
		rsR1, rsErr = core.RunResolverStudy(ctx, core.ResolverStudyConfig{ScaleDen: rsScaleDen, Seed: rsSeed, Shards: 1})
		if rsErr != nil {
			return
		}
		rsReg3 = obs.NewRegistry()
		rsR3, rsErr = core.RunResolverStudy(ctx, core.ResolverStudyConfig{
			ScaleDen: rsScaleDen, Seed: rsSeed, Shards: rsShards, Obs: rsReg3,
		})
	})
	if rsErr != nil {
		t.Fatal(rsErr)
	}
	return rsR1, rsR3, rsReg3
}

func resolverSpec(t *testing.T, seed uint64) core.ResolverStudySpec {
	t.Helper()
	spec, err := core.ResolverStudyConfig{ScaleDen: rsScaleDen, Seed: seed, Shards: rsShards}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// renderResolverReport turns a resolver-study report into user-visible
// bytes, the byte-identical half of the equivalence contract.
func renderResolverReport(r *core.ResolverStudyReport) string {
	var b bytes.Buffer
	for _, q := range respop.Quadrants() {
		if s := r.Series[q]; s != nil {
			analysis.RenderRCodeSeries(&b, s)
		}
	}
	return b.String()
}

// studyCase is one study instantiation under test: the spec to
// distribute and the in-process results a distributed run must
// reproduce. Every generic helper below is written once against it.
type studyCase[S core.Study[P, O, R], P, O core.Sharded, R any] struct {
	spec S
	// foreign is the same study kind under a different seed; wrongKind
	// runs a worker of the other study kind. Both must be refused.
	foreign   S
	wrongKind func(ctx context.Context, conn net.Conn) error
	// r1 is the in-process Shards=1 report — the strongest equivalence
	// target. rN/regN are the in-process run at spec's shard count,
	// whose per-shard structure matches the distributed run exactly,
	// making its structural counters directly comparable.
	r1, rN R
	regN   *obs.Registry
	render func(R) string
	// structural are the metrics that must merge to the same totals
	// whether shards run in one process or many (sign-cache counters
	// legitimately differ: each process has its own cache);
	// shardsDone counts completed shards.
	structural []string
	shardsDone string
}

func surveyCase(t *testing.T) studyCase[core.SurveySpec, population.ShardPlan, *core.ShardOutcome, *core.SurveyReport] {
	t.Helper()
	r1, r3, reg3 := golden(t)
	foreign, err := core.SurveyConfig{Registered: goldenRegistered, Seed: goldenSeed + 1, Shards: goldenShards}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return studyCase[core.SurveySpec, population.ShardPlan, *core.ShardOutcome, *core.SurveyReport]{
		spec: goldenSpec(t), foreign: foreign,
		wrongKind: func(ctx context.Context, conn net.Conn) error {
			return RunWorker(ctx, conn, resolverSpec(t, goldenSeed), WorkerConfig{Name: "wrong-kind"})
		},
		r1: r1, rN: r3, regN: reg3, render: renderReport,
		structural: structuralCounters, shardsDone: "survey_shards_completed_total",
	}
}

func resolverCase(t *testing.T) studyCase[core.ResolverStudySpec, respop.ShardPlan, *core.ResolverShardOutcome, *core.ResolverStudyReport] {
	t.Helper()
	r1, r3, reg3 := resolverGolden(t)
	return studyCase[core.ResolverStudySpec, respop.ShardPlan, *core.ResolverShardOutcome, *core.ResolverStudyReport]{
		spec: resolverSpec(t, rsSeed), foreign: resolverSpec(t, rsSeed+1),
		// Same seed, same shard count, wrong study kind: the hash
		// preimages are disjoint by construction.
		wrongKind: func(ctx context.Context, conn net.Conn) error {
			surveySpec, err := core.SurveyConfig{Registered: goldenRegistered, Seed: rsSeed, Shards: rsShards}.Resolve()
			if err != nil {
				return err
			}
			return RunWorker(ctx, conn, surveySpec, WorkerConfig{Name: "wrong-kind"})
		},
		r1: r1, rN: r3, regN: reg3, render: renderResolverReport,
		// The probe-path counters must merge to the in-process totals.
		structural: []string{
			"resolverstudy_probed_open_ipv4_total",
			"resolverstudy_probed_open_ipv6_total",
			"resolverstudy_probed_closed_ipv4_total",
			"resolverstudy_probed_closed_ipv6_total",
			"resolverstudy_probe_failures_total",
			"resolverstudy_shards_completed_total",
		},
		shardsDone: "resolverstudy_shards_completed_total",
	}
}

type serveResult[R any] struct {
	report R
	err    error
}

func serveAsync[O core.Sharded, R any](ctx context.Context, c *Coordinator[O, R], ln *netsim.StreamListener) chan serveResult[R] {
	ch := make(chan serveResult[R], 1)
	go func() {
		report, err := c.Serve(ctx, ln)
		ch <- serveResult[R]{report, err}
	}()
	return ch
}

func runWorkerAsync[S core.Study[P, O, R], P, O core.Sharded, R any](ctx context.Context, sn *netsim.StreamNet, spec S, name string) chan error {
	ch := make(chan error, 1)
	go func() {
		conn, err := sn.DialStream(ctx, "coord")
		if err != nil {
			ch <- err
			return
		}
		ch <- RunWorker(ctx, conn, spec, WorkerConfig{Name: name})
	}()
	return ch
}

// dialHello dials the coordinator and completes the handshake for the
// study with the given config hash, returning the wire for manual
// protocol driving.
func dialHello(ctx context.Context, t *testing.T, sn *netsim.StreamNet, hash string, opts ...netsim.StreamDialOption) *wireConn {
	t.Helper()
	conn, err := sn.DialStream(ctx, "coord", opts...)
	if err != nil {
		t.Fatal(err)
	}
	w := &wireConn{conn: conn}
	if err := w.write(ctx, &Frame{
		Type: TypeHello, Version: ProtocolVersion, ConfigHash: hash, Worker: "test-worker",
	}); err != nil {
		t.Fatal(err)
	}
	ok, err := w.read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Type != TypeHelloOK {
		t.Fatalf("handshake answered %+v", ok)
	}
	return w
}

// leaseJob requests one lease and returns its frame and decoded job.
func leaseJob[S core.Study[P, O, R], P, O core.Sharded, R any](ctx context.Context, t *testing.T, w *wireConn) (*Frame, core.Job[S, P]) {
	t.Helper()
	if err := w.write(ctx, &Frame{Type: TypeLease}); err != nil {
		t.Fatal(err)
	}
	f, err := w.read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var job core.Job[S, P]
	if f.Type != TypeJob || json.Unmarshal(f.Job, &job) != nil {
		t.Fatalf("lease answered %+v", f)
	}
	return f, job
}

// resultFrame executes a leased job exactly the way RunWorker does —
// fresh per-job registry, shared cache — and builds its result frame.
func resultFrame[S core.Study[P, O, R], P, O core.Sharded, R any](ctx context.Context, t *testing.T, f *Frame, job core.Job[S, P], cache *testbed.SignCache) *Frame {
	t.Helper()
	reg := obs.NewRegistry()
	out, err := core.NewRunner[S](reg, nil, cache).Execute(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return &Frame{Type: TypeResult, Shard: out.ShardIndex(), Lease: f.Lease, Outcome: data, Obs: reg.Snapshot()}
}

// executeShardAsWorker leases one shard, executes it, streams the
// result, and returns the shard index the coordinator accepted.
func executeShardAsWorker[S core.Study[P, O, R], P, O core.Sharded, R any](ctx context.Context, t *testing.T, w *wireConn, cache *testbed.SignCache) int {
	t.Helper()
	f, job := leaseJob[S](ctx, t, w)
	result := resultFrame(ctx, t, f, job, cache)
	if err := w.write(ctx, result); err != nil {
		t.Fatal(err)
	}
	ack, err := w.read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != TypeResultOK || !ack.Accepted {
		t.Fatalf("result answered %+v", ack)
	}
	return result.Shard
}

// checkGoldenEquivalence is the tentpole contract, written once for
// both studies: a coordinator with two workers produces the
// byte-identical report and the same structural metrics as the
// in-process pipeline — and a worker from a different study (same kind
// under other flags, or the other kind entirely) is refused at the
// handshake with a typed error before any lease is granted.
func checkGoldenEquivalence[S core.Study[P, O, R], P, O core.Sharded, R any](t *testing.T, c studyCase[S, P, O, R]) {
	ctx := context.Background()
	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig[S]{Spec: c.spec, Obs: reg, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveCh := serveAsync(ctx, coord, ln)

	for name, intruder := range map[string]func(context.Context, net.Conn) error{
		"foreign": func(ctx context.Context, conn net.Conn) error {
			return RunWorker(ctx, conn, c.foreign, WorkerConfig{Name: "foreign"})
		},
		"wrong-kind": c.wrongKind,
	} {
		conn, err := sn.DialStream(ctx, "coord")
		if err != nil {
			t.Fatal(err)
		}
		var hs *HandshakeError
		if err := intruder(ctx, conn); !errors.As(err, &hs) {
			t.Fatalf("%s worker returned %v, want *HandshakeError", name, err)
		}
	}

	w1 := runWorkerAsync(ctx, sn, c.spec, "w1")
	w2 := runWorkerAsync(ctx, sn, c.spec, "w2")
	res := <-serveCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	for _, ch := range []chan error{w1, w2} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}

	shards := len(coordJobs(t, c.spec))
	if !reflect.DeepEqual(res.report, c.r1) {
		t.Errorf("distributed report differs from single-process Shards=1:\nwant %+v\ngot  %+v", c.r1, res.report)
	}
	if !reflect.DeepEqual(res.report, c.rN) {
		t.Errorf("distributed report differs from in-process Shards=%d", shards)
	}
	if got, want := c.render(res.report), c.render(c.r1); got != want {
		t.Errorf("rendered report differs:\n%s\nvs\n%s", got, want)
	}
	for _, name := range c.structural {
		if got, want := counterValue(reg, name), counterValue(c.regN, name); got != want {
			t.Errorf("%s = %d distributed, %d in-process", name, got, want)
		}
	}
	if got := counterValue(reg, c.shardsDone); got != uint64(shards) {
		t.Errorf("%s = %d, want %d", c.shardsDone, got, shards)
	}
	if got := counterValue(reg, "distsurvey_workers_connected_total"); got != 2 {
		t.Errorf("workers_connected = %d, want 2 (the refused workers must not count)", got)
	}
	if got := counterValue(reg, "distsurvey_leases_granted_total"); got != uint64(shards) {
		t.Errorf("leases_granted = %d, want %d", got, shards)
	}
	if got := counterValue(reg, "distsurvey_results_rejected_total"); got != 0 {
		t.Errorf("results_rejected = %d, want 0", got)
	}
}

// coordJobs plans spec the way the coordinator does.
func coordJobs[S core.Study[P, O, R], P, O core.Sharded, R any](t *testing.T, spec S) []core.Job[S, P] {
	t.Helper()
	jobs, err := core.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestDistributedGoldenEquivalence(t *testing.T) { checkGoldenEquivalence(t, surveyCase(t)) }

func TestDistributedResolverStudyEquivalence(t *testing.T) {
	checkGoldenEquivalence(t, resolverCase(t))
}

// TestWorkerDeathReLease kills a worker that holds a lease (conn drop
// mid-shard) and requires the coordinator to re-lease the shard and
// still produce the identical report.
func TestWorkerDeathReLease(t *testing.T) {
	r1, _, _ := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(Config{Spec: spec, Obs: reg, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveCh := serveAsync(ctx, coord, ln)

	// The doomed worker leases shard 0, then dies without a word.
	doomed := dialHello(ctx, t, sn, spec.Hash())
	if _, job := leaseJob[core.SurveySpec](ctx, t, doomed); job.Plan.Index != 0 {
		t.Fatalf("first lease granted shard %d, want 0", job.Plan.Index)
	}
	if err := doomed.conn.Close(); err != nil {
		t.Fatal(err)
	}

	wch := runWorkerAsync(ctx, sn, spec, "survivor")
	res := <-serveCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("report after worker death differs from single-process run")
	}
	if got, want := renderReport(res.report), renderReport(r1); got != want {
		t.Errorf("rendered report differs:\n%s\nvs\n%s", got, want)
	}
	if got := counterValue(reg, "distsurvey_leases_expired_total"); got != 1 {
		t.Errorf("leases_expired = %d, want 1", got)
	}
	if got := counterValue(reg, "distsurvey_leases_granted_total"); got != goldenShards+1 {
		t.Errorf("leases_granted = %d, want %d (one re-lease)", got, goldenShards+1)
	}
}

// TestPartialResultFrameReLease cuts a worker's connection partway
// through its result frame — the torn-write case — and requires the
// coordinator to discard the partial frame, re-lease the shard, and
// never double-merge.
func TestPartialResultFrameReLease(t *testing.T) {
	r1, _, _ := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(Config{Spec: spec, Obs: reg, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveCh := serveAsync(ctx, coord, ln)

	// Budget the doomed worker's writes so the hello and lease frames
	// go through whole and the result frame is cut 10 bytes in.
	frameBytes := func(f *Frame) int {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return 4 + len(data) + 1
	}
	budget := frameBytes(&Frame{
		Type: TypeHello, Version: ProtocolVersion, ConfigHash: spec.Hash(), Worker: "test-worker",
	}) + frameBytes(&Frame{Type: TypeLease}) + 10

	cut := dialHello(ctx, t, sn, spec.Hash(), netsim.WithWriteLimit(budget))
	f, job := leaseJob[core.SurveySpec](ctx, t, cut)
	if werr := cut.write(ctx, resultFrame(ctx, t, f, job, nil)); werr == nil {
		t.Fatal("result write survived a 10-byte budget; the fault injection did not fire")
	}

	wch := runWorkerAsync(ctx, sn, spec, "survivor")
	res := <-serveCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("report after torn result frame differs from single-process run")
	}
	if got := counterValue(reg, "distsurvey_leases_granted_total"); got != goldenShards+1 {
		t.Errorf("leases_granted = %d, want %d (the torn shard re-leases)", got, goldenShards+1)
	}
	if got := counterValue(reg, "survey_shards_completed_total"); got != goldenShards {
		t.Errorf("survey_shards_completed_total = %d, want %d (no double merge)", got, goldenShards)
	}
}

// TestLeaseExpiryReLeasesSilentWorker exercises the slow re-lease
// path: a worker that holds its connection open but never heartbeats
// loses its lease after the TTL.
func TestLeaseExpiryReLeasesSilentWorker(t *testing.T) {
	r1, _, _ := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(Config{Spec: spec, Obs: reg, LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveCh := serveAsync(ctx, coord, ln)

	silent := dialHello(ctx, t, sn, spec.Hash())
	defer silent.conn.Close()
	leaseJob[core.SurveySpec](ctx, t, silent) // shard 0, then silence: no heartbeat, no result

	wch := runWorkerAsync(ctx, sn, spec, "survivor")
	res := <-serveCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("report after lease expiry differs from single-process run")
	}
	if got := counterValue(reg, "distsurvey_leases_expired_total"); got != 1 {
		t.Errorf("leases_expired = %d, want 1", got)
	}
	if got := counterValue(reg, "distsurvey_leases_granted_total"); got != goldenShards+1 {
		t.Errorf("leases_granted = %d, want %d", got, goldenShards+1)
	}
}

// checkKilledAndResumed is the crash-safety half of the golden test,
// written once for both studies: all shards but one complete and
// checkpoint, the coordinator is killed, and a resumed coordinator
// finishes only the remaining shard yet produces the byte-identical
// report and structural metrics.
func checkKilledAndResumed[S core.Study[P, O, R], P, O core.Sharded, R any](t *testing.T, c studyCase[S, P, O, R]) {
	ctx := context.Background()
	state := filepath.Join(t.TempDir(), "state")
	done := len(coordJobs(t, c.spec)) - 1

	// Phase 1: all shards but the last checkpoint, then the coordinator
	// dies.
	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(CoordinatorConfig[S]{Spec: c.spec, Obs: obs.NewRegistry(), StateDir: state, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(ctx)
	serveCh := serveAsync(ctx1, coord1, ln)
	w := dialHello(ctx, t, sn, c.spec.Hash())
	cache := testbed.NewSignCache()
	for i := 0; i < done; i++ {
		if got := executeShardAsWorker[S](ctx, t, w, cache); got != i {
			t.Fatalf("phase 1 executed shard %d, want %d", got, i)
		}
	}
	if err := w.conn.Close(); err != nil {
		t.Fatal(err)
	}
	kill()
	if res := <-serveCh; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("killed coordinator returned %v, want context.Canceled", res.err)
	}

	// A fresh (non-resume) run over the same state dir must refuse.
	var exists *StateExistsError
	if _, err := NewCoordinator(CoordinatorConfig[S]{Spec: c.spec, StateDir: state}); !errors.As(err, &exists) {
		t.Fatalf("fresh run over live state returned %v, want *StateExistsError", err)
	}
	// So must a resume under different study flags.
	var mismatch *StateMismatchError
	if _, err := NewCoordinator(CoordinatorConfig[S]{Spec: c.foreign, StateDir: state, Resume: true}); !errors.As(err, &mismatch) {
		t.Fatalf("foreign resume returned %v, want *StateMismatchError", err)
	}
	if mismatch.Got != c.spec.Hash() || mismatch.Want != c.foreign.Hash() {
		t.Fatalf("mismatch error carries %q/%q", mismatch.Got, mismatch.Want)
	}

	// Phase 2: resume recovers the checkpoints and a real worker
	// finishes the one remaining shard.
	sn2 := netsim.NewStreamNet()
	ln2, err := sn2.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	coord2, err := NewCoordinator(CoordinatorConfig[S]{Spec: c.spec, Obs: reg2, StateDir: state, Resume: true, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := coord2.CheckpointsLoaded(); got != done {
		t.Fatalf("resume loaded %d checkpoints, want %d", got, done)
	}
	serveCh2 := serveAsync(ctx, coord2, ln2)
	wch := runWorkerAsync(ctx, sn2, c.spec, "finisher")
	res := <-serveCh2
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, c.r1) {
		t.Errorf("resumed report differs from single-process run")
	}
	if got, want := c.render(res.report), c.render(c.r1); got != want {
		t.Errorf("rendered resumed report differs:\n%s\nvs\n%s", got, want)
	}
	for _, name := range c.structural {
		if got, want := counterValue(reg2, name), counterValue(c.regN, name); got != want {
			t.Errorf("%s = %d resumed, %d in-process", name, got, want)
		}
	}
	if got := counterValue(reg2, "distsurvey_checkpoints_loaded_total"); got != uint64(done) {
		t.Errorf("checkpoints_loaded = %d, want %d", got, done)
	}
	if got := counterValue(reg2, "distsurvey_leases_granted_total"); got != 1 {
		t.Errorf("leases_granted = %d, want 1 (only the unfinished shard)", got)
	}
}

func TestCoordinatorKilledAndResumed(t *testing.T) {
	t.Run("survey", func(t *testing.T) { checkKilledAndResumed(t, surveyCase(t)) })
	t.Run("resolverstudy", func(t *testing.T) { checkKilledAndResumed(t, resolverCase(t)) })
}

// TestResumeSkipsCorruptCheckpoints: truncated or garbage checkpoint
// files are skipped — their shards simply re-run — and the report is
// still identical.
func TestResumeSkipsCorruptCheckpoints(t *testing.T) {
	r1, _, _ := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()
	state := filepath.Join(t.TempDir(), "state")

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(Config{Spec: spec, Obs: obs.NewRegistry(), StateDir: state, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(ctx)
	serveCh := serveAsync(ctx1, coord1, ln)
	w := dialHello(ctx, t, sn, spec.Hash())
	cache := testbed.NewSignCache()
	for i := 0; i < 2; i++ {
		executeShardAsWorker[core.SurveySpec](ctx, t, w, cache)
	}
	if err := w.conn.Close(); err != nil {
		t.Fatal(err)
	}
	kill()
	<-serveCh

	// Tear one checkpoint mid-file and replace the other with garbage.
	truncated := filepath.Join(state, "shard-0000.json")
	data, err := os.ReadFile(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(state, "shard-0001.json"), []byte("{definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	sn2 := netsim.NewStreamNet()
	ln2, err := sn2.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	coord2, err := NewCoordinator(Config{Spec: spec, Obs: reg2, StateDir: state, Resume: true, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := coord2.CheckpointsLoaded(); got != 0 {
		t.Fatalf("resume loaded %d corrupt checkpoints, want 0", got)
	}
	serveCh2 := serveAsync(ctx, coord2, ln2)
	wch := runWorkerAsync(ctx, sn2, spec, "redo")
	res := <-serveCh2
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("report after corrupt-checkpoint redo differs from single-process run")
	}
	if got := counterValue(reg2, "distsurvey_checkpoints_skipped_total"); got != 2 {
		t.Errorf("checkpoints_skipped = %d, want 2", got)
	}
	if got := counterValue(reg2, "distsurvey_leases_granted_total"); got != goldenShards {
		t.Errorf("leases_granted = %d, want %d (every shard redone)", got, goldenShards)
	}
	if got := counterValue(reg2, "survey_shards_completed_total"); got != goldenShards {
		t.Errorf("survey_shards_completed_total = %d, want %d (skip-and-redo, never double-merge)", got, goldenShards)
	}
}
