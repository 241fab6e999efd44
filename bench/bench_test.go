package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/bench/internal/load"
	"repro/bench/internal/span"
	"repro/internal/dnswire"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func registryManifest() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// TestManifestMatchesRegistry keeps BENCHMARK.json and registry.go from
// drifting apart. BENCH_WRITE_MANIFEST=1 regenerates the file.
func TestManifestMatchesRegistry(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := registryManifest()
	if os.Getenv("BENCH_WRITE_MANIFEST") == "1" {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; BENCH_WRITE_MANIFEST=1 go test -run TestManifestMatchesRegistry rewrites it")
	}
	seen := make(map[string]bool)
	for _, lists := range [][]metricDef{want.EndToEnd, want.PerLayer} {
		for _, d := range lists {
			if seen[d.Name] || d.Unit == "" || (d.Better != lower && d.Better != higher) {
				t.Errorf("metric %q: duplicate name, empty unit or bad direction", d.Name)
			}
			seen[d.Name] = true
		}
	}
	var setup bool
	for _, d := range want.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

// runMain runs the command line in-process at smoke size and returns
// the exit code, the decoded last line of standard output and the
// directory the run wrote to.
func runMain(t *testing.T, args ...string) (int, *result, string) {
	t.Helper()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := realMain(append(args, "--scale", "smoke", "--out", out), &stdout, &stderr)
	t.Logf("%s", stderr.String())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, last line %q: %v", code, lines[len(lines)-1], err)
	}
	return code, &res, out
}

func checkResult(t *testing.T, code int, res *result, defs []metricDef, mustBePositive func(string) bool) {
	t.Helper()
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("exit %d correct=%t attempted=%d failed=%d", code, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, registry has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s not printed", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s printed with unit %q, want %q", d.Name, v.Unit, d.Unit)
		case mustBePositive(d.Name) && !(v.Value > 0):
			t.Errorf("%s = %v, want a positive value", d.Name, v.Value)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, res, _ := runMain(t, "--workload", w.Name, "--seed", "3", "--seconds", "0.6", "--trace", "0")
			checkResult(t, code, res, endToEnd, func(string) bool { return true })
		})
	}
}

// crossed lists the span- and counter-derived metrics that must read
// above 0 on a workload; the rest of that kind read 0 where the
// workload does not cross their layer. Every timed-loop metric must be
// positive on every workload.
var crossed = map[string][]string{
	wSurveySharded: {"authserver.sign_wait_s", "netsim.self_share", "resolver.self_us_per_query",
		"resolver.upstream_per_query", "scanner.self_us_per_domain", "scanner.queries_per_domain",
		"testbed.lazy_untouched_ratio", "core.generate_s", "core.deploy_s", "core.scan_s", "core.merge_s",
		"harness.cpu_util", "harness.rep_spread"},
	wResolverStudy: {"netsim.self_share", "resolver.self_us_per_query", "resolver.upstream_per_query",
		"resolver.nsec3_hash_work_per_probe", "testbed.sign_reuse_ratio", "core.deploy_s", "core.probe_s",
		"core.merge_s", "harness.cpu_util", "harness.rep_spread"},
	wAuthdUnique: {"netsim.self_share", "harness.cpu_util", "harness.loadgen_share", "harness.rep_spread"},
}

// derived is every metric that comes from spans or counters of the
// traced workload, not from a timed loop.
var derived = map[string]bool{
	"authserver.sign_wait_s": true, "netsim.self_share": true, "resolver.self_us_per_query": true,
	"resolver.upstream_per_query": true, "resolver.nsec3_hash_work_per_probe": true,
	"resolver.aggressive_hit_ratio": true, "scanner.self_us_per_domain": true,
	"scanner.queries_per_domain": true, "scanner.retry_ratio": true, "testbed.sign_reuse_ratio": true,
	"testbed.lazy_untouched_ratio": true, "core.generate_s": true, "core.deploy_s": true, "core.scan_s": true,
	"core.probe_s": true, "core.merge_s": true, "obs.trace_overhead_share": true, "harness.cpu_util": true,
	"harness.gc_cpu_share": true, "harness.loadgen_share": true, "harness.rep_spread": true,
	// Already at its floor with a reused buffer; differences of two wall
	// times; sockets the sandbox may forbid.
	"dnswire.allocs.pack_nxdomain": true, "distsurvey.overhead_share": true, "netsim.udp_rtt_us_p50": true, "netsim.udp_rtt_us_p99": true, "netsim.udp_qps": true,
}

func TestSmokeTraced(t *testing.T) {
	for name, must := range crossed {
		t.Run(name, func(t *testing.T) {
			if name == wResolverStudy && testing.Short() {
				t.Skip("three passes over the 200-validator minimum fleet take about 15 s")
			}
			code, res, out := runMain(t, "--workload", name, "--seed", "3", "--seconds", "0.8", "--trace", "1")
			positive := make(map[string]bool)
			for _, m := range must {
				positive[m] = true
			}
			checkResult(t, code, res, perLayer, func(m string) bool { return positive[m] || !derived[m] })

			// The trace file holds the spans, and within every request
			// the self times add up to the request's duration.
			data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			self, dur := make(map[int64]int64), make(map[int64]int64)
			parents := make(map[int64]int64)
			var spans []span.Span
			dec := json.NewDecoder(bytes.NewReader(data))
			for dec.More() {
				var s span.Span
				if err := dec.Decode(&s); err != nil {
					t.Fatal(err)
				}
				spans = append(spans, s)
				parents[s.ID] = s.Req
			}
			for _, s := range spans {
				if s.Req == 0 {
					continue
				}
				self[s.Req] += s.Self
				if parents[s.Parent] == 0 {
					dur[s.Req] = s.End - s.Start
				}
			}
			if len(dur) == 0 {
				t.Fatal("trace holds no request")
			}
			for req, d := range dur {
				if diff := self[req] - d; diff > d/20 || diff < -d/20 {
					t.Errorf("request %d: self times sum to %d ns, its span lasted %d ns", req, self[req], d)
				}
			}
		})
	}
}

func TestSeedsMakeInputs(t *testing.T) {
	apex := dnswire.MustParseName("bench.example.")
	streams := map[string]func(seed uint64) load.Stream{
		"hot":    func(seed uint64) load.Stream { return load.NewHot(seed, apex, load.HostLabels(seed, 100)) },
		"unique": func(seed uint64) load.Stream { return load.NewUnique(seed, apex, load.HostLabels(seed, 100)) },
	}
	for name, mk := range streams {
		a, b, c := load.Digest(mk(1), 500), load.Digest(mk(1), 500), load.Digest(mk(2), 500)
		if a != b {
			t.Errorf("%s: seed 1 gave stream digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream digest %s", name, a)
		}
	}

	// The unique stream never repeats an NXDOMAIN name.
	seen := make(map[dnswire.Name]bool)
	u := streams["unique"](1)
	for i := 0; i < 5000; i++ {
		if q := u.Next(); q.NX {
			if seen[q.Name] {
				t.Fatalf("unique stream repeated %s", q.Name)
			}
			seen[q.Name] = true
		}
	}

	ctx := context.Background()
	digest := func(seed uint64) string {
		b := surveyWorkload(options{workload: wSurveyOneWorld, seed: seed, smoke: true})
		r, err := b.rep(ctx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.digest
	}
	if a, b := digest(5), digest(5); a != b {
		t.Errorf("seed 5 gave report digests %s and %s", a, b)
	}
	if a, c := digest(5), digest(6); a == c {
		t.Errorf("seeds 5 and 6 gave the same report digest %s", a)
	}
}

func TestWrongRCodeFailsTheRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	o := options{workload: wAuthdHot, seed: 1, seconds: 0.3, smoke: true, outDir: t.TempDir(), wrongRCode: true}
	code := execute(context.Background(), o, &stdout, &stderr)
	var res result
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		t.Fatal(err)
	}
	if code == 0 || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("exit %d with %d of %d failed; want a non-zero exit and every query failed", code, res.Failed, res.Attempted)
	}
}

func TestCommandLineRejectsNonsense(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"}, {"--scale", "huge"}, {"--seconds", "0"}, {"stray"}, {"--agree", "--runs", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
