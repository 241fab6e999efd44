package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysis"
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
	if b.MergedCount() != 1 || !b.Merged(2) || b.Merged(0) {
		t.Fatalf("merged bookkeeping wrong: count=%d", b.MergedCount())
	}
	var none O
	if err := b.Add(none); err == nil || b.MergedCount() != 1 {
		t.Fatalf("absent outcome: Add returned %v with %d merged, want an error and 1", err, b.MergedCount())
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

// TestSurveySpecHash: the hash pins exactly the result-affecting
// fields — runtime throttles may change across a resume.
func TestSurveySpecHash(t *testing.T) {
	base := surveyTestSpec(t, 4)
	same := base
	same.Workers = 3
	same.QPS = 99
	if base.Hash() != same.Hash() {
		t.Error("Workers/QPS changed the config hash; resumes with different throttles would be refused")
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
