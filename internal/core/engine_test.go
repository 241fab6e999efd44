package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/population"
)

// The engine contract tests are written once, generically, and run
// against both instantiations: each top-level test has a "survey" and a
// "resolverstudy" row.

func surveyTestSpec(t *testing.T, shards int) SurveySpec {
	t.Helper()
	spec, err := SurveyConfig{Registered: 600, Seed: 5, Shards: shards}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func resolverTestSpec(t *testing.T, shards int) ResolverStudySpec {
	t.Helper()
	spec, err := ResolverStudyConfig{ScaleDen: 2000, Seed: 5, Shards: shards}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// roundTripReport drives the plan/execute/merge layers the way the
// distributed runner does — every job and every outcome through a JSON
// round trip, merged out of order — and returns the report.
func roundTripReport[S Study[P, O, R], P, O Sharded, R any](t *testing.T, spec S, shards int) R {
	t.Helper()
	jobs, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != shards {
		t.Fatalf("planned %d jobs, want %d", len(jobs), shards)
	}
	runner := NewRunner[S](nil, nil, nil)
	outcomes := make([]O, len(jobs))
	for i, job := range jobs {
		// A job itself must survive the wire: the coordinator sends it
		// to workers as JSON.
		data, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		var decodedJob Job[S, P]
		if err := json.Unmarshal(data, &decodedJob); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(job, decodedJob) {
			t.Fatalf("job drifted through JSON: %+v vs %+v", job, decodedJob)
		}
		out, err := runner.Execute(context.Background(), decodedJob)
		if err != nil {
			t.Fatal(err)
		}
		if data, err = json.Marshal(out); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &outcomes[i]); err != nil {
			t.Fatal(err)
		}
	}
	builder := NewBuilder(spec)
	for i := len(outcomes) - 1; i >= 0; i-- { // merge out of order
		if err := builder.Add(outcomes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return builder.Finish()
}

// TestEngineOutcomeJSONRoundTrip requires the decoded, reordered merge
// to produce the exact report the in-process Run produces. This is the
// in-memory half of the distributed golden equivalence tests.
func TestEngineOutcomeJSONRoundTrip(t *testing.T) {
	ctx := context.Background()
	t.Run("survey", func(t *testing.T) {
		spec := surveyTestSpec(t, 3)
		want, err := Run(ctx, spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := roundTripReport(t, spec, 3)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("decoded+reordered report differs from RunSurvey:\nwant %+v\ngot  %+v", want, got)
		}
		// Rendered bytes too: DeepEqual can miss nothing here, but the
		// render path is the user-visible contract.
		var a, b bytes.Buffer
		analysis.RenderCDF(&a, "iter", want.IterCDF, []int{0, 25, 500})
		analysis.RenderCDF(&b, "iter", got.IterCDF, []int{0, 25, 500})
		analysis.RenderOperatorTable(&a, want.Operators.Top(10))
		analysis.RenderOperatorTable(&b, got.Operators.Top(10))
		if a.String() != b.String() {
			t.Fatalf("rendered output differs:\n%s\nvs\n%s", a.String(), b.String())
		}
	})
	t.Run("resolverstudy", func(t *testing.T) {
		spec := resolverTestSpec(t, 3)
		want, err := Run(ctx, spec, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := roundTripReport(t, spec, 3); !reflect.DeepEqual(want, got) {
			t.Fatalf("decoded+reordered report differs from RunResolverStudy:\nwant %+v\ngot  %+v", want, got)
		}
	})
}

// checkRejectsDuplicate pins the never-double-merge enforcement point
// re-leased and resumed shards rely on.
func checkRejectsDuplicate[S Study[P, O, R], P, O Sharded, R any](t *testing.T, spec S, shard2 O) {
	b := NewBuilder(spec)
	if err := b.Add(shard2); err != nil {
		t.Fatal(err)
	}
	err := b.Add(shard2)
	var dup *DuplicateShardError
	if !errors.As(err, &dup) || dup.Index != 2 {
		t.Fatalf("second Add returned %v, want *DuplicateShardError{2}", err)
	}
	merged := func() (idx []int) {
		for i := range 8 {
			if b.Merged(i) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	if got := merged(); !slices.Equal(got, []int{2}) {
		t.Fatalf("merged bookkeeping wrong: shards %v merged, want [2]", got)
	}
	var none O
	if err := b.Add(none); err == nil || !slices.Equal(merged(), []int{2}) {
		t.Fatalf("absent outcome: Add returned %v with shards %v merged, want an error and [2]", err, merged())
	}
}

func TestReportBuilderRejectsDuplicate(t *testing.T) {
	t.Run("survey", func(t *testing.T) {
		checkRejectsDuplicate(t, surveyTestSpec(t, 1), &ShardOutcome{Index: 2})
	})
	t.Run("resolverstudy", func(t *testing.T) {
		checkRejectsDuplicate(t, resolverTestSpec(t, 1), &ResolverShardOutcome{Index: 2})
	})
}

// TestSurveySpecHashStable pins one spec's hash to the value state
// directories already carry, and decodes a job spec in the older wire
// form, which still has a "qps" field, to the same spec and hash.
func TestSurveySpecHashStable(t *testing.T) {
	const want = "4517efb0f821054d991ae779d1fa3b9a"
	spec := surveyTestSpec(t, 4)
	if got := spec.Hash(); got != want {
		t.Fatalf("Hash() = %s, want %s: every recorded lease and state directory would be refused", got, want)
	}
	var old SurveySpec
	if err := json.Unmarshal([]byte(`{"registered":600,"seed":5,"workers":64,"qps":0,"shards":4,"signing":1}`), &old); err != nil {
		t.Fatal(err)
	}
	if old != spec || old.Hash() != want {
		t.Fatalf("older job spec decoded to %+v (hash %s), want %+v (hash %s)", old, old.Hash(), spec, want)
	}
}

// TestSurveySpecHash: the hash pins exactly the result-affecting
// fields — runtime throttles may change across a resume.
func TestSurveySpecHash(t *testing.T) {
	base := surveyTestSpec(t, 4)
	same := base
	same.Workers = 3
	if base.Hash() != same.Hash() {
		t.Error("Workers changed the config hash; resumes with different throttles would be refused")
	}
	for _, mut := range []func(*SurveySpec){
		func(s *SurveySpec) { s.Registered++ },
		func(s *SurveySpec) { s.Seed++ },
		func(s *SurveySpec) { s.Shards++ },
		func(s *SurveySpec) { s.Signing = SigningEager },
	} {
		changed := base
		mut(&changed)
		if base.Hash() == changed.Hash() {
			t.Errorf("hash blind to a result-affecting field: %+v vs %+v", base, changed)
		}
	}
}

// checkRejectsForeignJob: an executor must refuse a job whose carried
// hash disagrees with its spec — the wire can feed it anything.
func checkRejectsForeignJob[S Study[P, O, R], P, O Sharded, R any](t *testing.T, spec S) {
	jobs, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	job.ConfigHash = "not-the-hash"
	if _, err := NewRunner[S](nil, nil, nil).Execute(context.Background(), job); err == nil {
		t.Fatal("mismatched config hash accepted")
	}
}

func TestShardRunnerRejectsForeignJob(t *testing.T) {
	t.Run("survey", func(t *testing.T) { checkRejectsForeignJob(t, surveyTestSpec(t, 1)) })
	t.Run("resolverstudy", func(t *testing.T) { checkRejectsForeignJob(t, resolverTestSpec(t, 1)) })
}

// TestSurveyIDTLDCountsMatchReference pins the AXFR pass at seeds 1
// and 7: shard 0 of a three-shard survey transfers every open Identity
// Digital TLD (TransferredTLDs, sorted) and counts the shard's domains
// under Identity Digital TLDs — each TLD's zone delegates exactly the
// shard's domains under it, so the count equals the universe's own.
func TestSurveyIDTLDCountsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end survey shard is slow")
	}
	for _, seed := range []uint64{1, 7} {
		spec, err := SurveyConfig{Registered: 600, Seed: seed, Shards: 3}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := NewShardRunner(nil, nil, nil).Execute(context.Background(), jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		checkShardTruth(t, SurveyConfig{Registered: 600, Seed: seed, Shards: 3}, jobs[0].Plan, out)

		planner, err := population.NewShardPlanner(spec.populationConfig())
		if err != nil {
			t.Fatal(err)
		}
		shard, err := planner.GenerateShard(jobs[0].Plan)
		if err != nil {
			t.Fatal(err)
		}
		idTLD := make(map[string]bool)
		var open []string
		for _, tld := range shard.Universe.TLDs {
			if tld.Registry == population.IdentityDigitalName {
				idTLD[tld.Name] = true
				if tld.OpenZoneData {
					open = append(open, tld.Name)
				}
			}
		}
		sort.Strings(open)
		under := 0
		for _, d := range shard.Universe.Domains {
			if idTLD[d.TLD] {
				under++
			}
		}
		if len(open) == 0 || under == 0 {
			t.Fatalf("seed %d: reference is vacuous (%d open TLDs, %d domains)", seed, len(open), under)
		}
		if !reflect.DeepEqual(out.TransferredTLDs, open) {
			t.Errorf("seed %d: transferred %v, want %v", seed, out.TransferredTLDs, open)
		}
		if out.DomainsUnderIDTLDs != under {
			t.Errorf("seed %d: %d domains under Identity Digital TLDs, want %d", seed, out.DomainsUnderIDTLDs, under)
		}
	}
}

// TestBuilderOrderIndependent is the fold half of the shard contract:
// each study runs once at four shards, and its outcomes, JSON-encoded
// as a worker sends them, are folded from fresh decodes in every one
// of the 24 orders. Every order must build the in-order report and
// render the committed seed-1 golden. A Merge that keeps the last
// shard's field, a map-range write that keeps the last key, or a fold
// that overwrites instead of merging fails here.
func TestBuilderOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end studies are slow")
	}
	t.Run("survey", func(t *testing.T) {
		spec, err := SurveyConfig{Registered: 900, Seed: 1, Shards: 4}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		checkEveryFoldOrder(t, spec, "survey-seed1", renderSurvey)
	})
	t.Run("resolverstudy", func(t *testing.T) {
		spec, err := ResolverStudyConfig{ScaleDen: 2000, Seed: 1, Shards: 4}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		checkEveryFoldOrder(t, spec, "resolverstudy-seed1", renderResolverStudy)
	})
}

// checkEveryFoldOrder executes each of spec's jobs once and folds the
// encoded outcomes in every permutation.
func checkEveryFoldOrder[S Study[P, O, R], P, O Sharded, R any](t *testing.T, spec S, golden string, render func(R) string) {
	t.Helper()
	jobs, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("planned %d jobs, want 4", len(jobs))
	}
	runner := NewRunner[S](nil, nil, nil)
	encoded := make([][]byte, len(jobs))
	for i, job := range jobs {
		out, err := runner.Execute(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if encoded[i], err = json.Marshal(out); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	var inOrder R
	orders := 0
	permute(len(jobs), func(order []int) {
		b := NewBuilder(spec)
		for _, i := range order {
			var o O
			if err := json.Unmarshal(encoded[i], &o); err != nil {
				t.Fatal(err)
			}
			if err := b.Add(o); err != nil {
				t.Fatal(err)
			}
		}
		report := b.Finish()
		if orders == 0 {
			inOrder = report
		} else if !reflect.DeepEqual(report, inOrder) {
			t.Errorf("fold order %v builds a report that differs from the in-order one", order)
		}
		if got := goldenText(t, report, render(report)); got != string(want) {
			t.Errorf("fold order %v renders a report that differs from testdata/%s.golden", order, golden)
		}
		orders++
	})
	if orders != 24 {
		t.Fatalf("folded %d orders, want 24", orders)
	}
}

// permute calls visit with every permutation of 0..n-1, the identity
// first.
func permute(n int, visit func([]int)) {
	order := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(order) == n {
			visit(order)
			return
		}
		for i := range n {
			if !used[i] {
				used[i] = true
				order = append(order, i)
				rec()
				order = order[:len(order)-1]
				used[i] = false
			}
		}
	}
	rec()
}
