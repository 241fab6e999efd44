package distsurvey

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func storeSpec(t *testing.T, seed uint64) core.SurveySpec {
	t.Helper()
	spec, err := core.SurveyConfig{Registered: 100, Seed: seed, Shards: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOpenStoreLifecycle pins the typed refusals around state
// directories: fresh-over-live needs -resume, resume-with-other-flags
// is a mismatch, resume-of-nothing is an error.
func TestOpenStoreLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	spec := storeSpec(t, 1)

	if _, _, _, err := OpenStore(dir, spec, true); err == nil {
		t.Fatal("resume of a nonexistent state dir succeeded")
	}
	store, cps, skipped, err := OpenStore(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 0 || skipped != 0 {
		t.Fatalf("fresh store reported %d checkpoints, %d skipped", len(cps), skipped)
	}
	var exists *StateExistsError
	if _, _, _, err := OpenStore(dir, spec, false); !errors.As(err, &exists) {
		t.Fatalf("second fresh open returned %v, want *StateExistsError", err)
	}
	var mismatch *StateMismatchError
	if _, _, _, err := OpenStore(dir, storeSpec(t, 2), true); !errors.As(err, &mismatch) {
		t.Fatalf("foreign resume returned %v, want *StateMismatchError", err)
	}

	// Round trip one checkpoint and resume it.
	if err := store.Write(&Checkpoint{Outcome: &core.ShardOutcome{Index: 1, ScanErrors: 3}}); err != nil {
		t.Fatal(err)
	}
	_, cps, skipped, err = OpenStore(dir, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(cps) != 1 || cps[0].Outcome.Index != 1 || cps[0].Outcome.ScanErrors != 3 {
		t.Fatalf("resume returned cps=%+v skipped=%d", cps, skipped)
	}

	// An empty checkpoint is refused at the source.
	if err := store.Write(nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	if err := store.Write(&Checkpoint{}); err == nil {
		t.Error("outcome-less checkpoint accepted")
	}
}

// TestLoadSkipsMisfiledCheckpoint: a checkpoint whose filename and
// recorded shard index disagree is skipped, not merged under the wrong
// shard.
func TestLoadSkipsMisfiledCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	spec := storeSpec(t, 1)
	store, _, _, err := OpenStore(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(&Checkpoint{Outcome: &core.ShardOutcome{Index: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "shard-0000.json"), filepath.Join(dir, "shard-0001.json")); err != nil {
		t.Fatal(err)
	}
	_, cps, skipped, err := OpenStore(dir, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 0 || skipped != 1 {
		t.Fatalf("misfiled checkpoint: cps=%d skipped=%d, want 0/1", len(cps), skipped)
	}
}

// TestResolverStoreRoundTrip pins the resolver-study checkpoint path
// through the same Store: a written shard survives reopen, and a
// survey store never resumes from a resolver-study directory (disjoint
// hashes).
func TestResolverStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := resolverSpec(t, rsSeed)
	store, cps, _, err := OpenStore(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 0 {
		t.Fatalf("fresh store returned %d checkpoints", len(cps))
	}
	type checkpoint = ShardCheckpoint[*core.ResolverShardOutcome]
	out := &core.ResolverShardOutcome{Index: 1, ProbeFailures: 3}
	if err := store.Write(&checkpoint{Outcome: out}); err != nil {
		t.Fatal(err)
	}
	if err := store.Write(&checkpoint{}); err == nil {
		t.Fatal("empty checkpoint accepted")
	}

	_, cps, skipped, err := OpenStore(dir, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(cps) != 1 {
		t.Fatalf("resume returned %d checkpoints (%d skipped), want 1 (0)", len(cps), skipped)
	}
	if cps[0].Outcome == nil || cps[0].Outcome.Index != 1 || cps[0].Outcome.ProbeFailures != 3 {
		t.Fatalf("resumed checkpoint = %+v", cps[0].Outcome)
	}

	var mismatch *StateMismatchError
	if _, _, _, err := OpenStore(dir, storeSpec(t, rsSeed), true); !errors.As(err, &mismatch) {
		t.Fatalf("survey resume over resolver-study state returned %v, want *StateMismatchError", err)
	}
}

// TestResumeRefusesVersion1State: a resolver-study state directory in
// the protocol-version-1 format (manifest with rspec, checkpoint with
// routcome — written by the pre-unification code for exactly this
// study) is refused outright on -resume rather than half-loaded: the
// spec hash version moved with the format.
func TestResumeRefusesVersion1State(t *testing.T) {
	dir := t.TempDir()
	const v1Hash = "a9421772ca0df1c50c8379f11901e6c4" // sd=2000 s=5 sh=2 under specHashVersion 1
	for name, data := range map[string]string{
		manifestName: `{"version":1,"config_hash":"` + v1Hash + `","spec":{"registered":0,"seed":0,"workers":0,"qps":0,"shards":0,"signing":0},` +
			`"kind":"resolverstudy","rspec":{"scale_den":2000,"seed":5,"workers":32,"shards":2}}`,
		shardFile(0): `{"config_hash":"` + v1Hash + `","routcome":{"index":0,"series":null,"per_quadrant":null,"deployed":null,"probe_failures":3}}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := core.ResolverStudyConfig{ScaleDen: 2000, Seed: 5, Shards: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var mismatch *StateMismatchError
	_, err = NewCoordinator(CoordinatorConfig[core.ResolverStudySpec]{Spec: spec, StateDir: dir, Resume: true})
	if !errors.As(err, &mismatch) || mismatch.Got != v1Hash {
		t.Fatalf("resume over version-1 state returned %v, want *StateMismatchError carrying the recorded hash", err)
	}
}
