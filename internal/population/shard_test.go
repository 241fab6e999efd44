package population

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compliance"
)

// collectShards drains a cursor and returns the concatenated domains
// plus the per-shard (offset, size) layout.
func collectShards(t *testing.T, cfg Config, shards int) ([]DomainSpec, []*Shard) {
	t.Helper()
	cur, err := NewShardCursor(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	var all []DomainSpec
	var got []*Shard
	for {
		shard, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if shard == nil {
			break
		}
		all = append(all, shard.Universe.Domains...)
		got = append(got, shard)
	}
	return all, got
}

// TestShardDecompositionInvariant is the core guarantee of the
// streaming refactor: any shard count concatenates to the exact same
// universe Generate materializes.
func TestShardDecompositionInvariant(t *testing.T) {
	cfg := Config{Registered: 2377, Seed: 17} // prime size: uneven splits
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 7, 64} {
		all, layout := collectShards(t, cfg, shards)
		if len(all) != len(want.Domains) {
			t.Fatalf("shards=%d: %d domains, want %d", shards, len(all), len(want.Domains))
		}
		for i := range all {
			if all[i] != want.Domains[i] {
				t.Fatalf("shards=%d: domain %d differs: %+v vs %+v",
					shards, i, all[i], want.Domains[i])
			}
		}
		// Layout: contiguous offsets covering the whole universe.
		off := 0
		for i, s := range layout {
			if s.Index != i || s.Offset != off {
				t.Fatalf("shards=%d: shard %d has index %d offset %d, want offset %d",
					shards, i, s.Index, s.Offset, off)
			}
			if len(s.Universe.Domains) == 0 {
				t.Fatalf("shards=%d: empty shard %d", shards, i)
			}
			off += len(s.Universe.Domains)
		}
		if off != cfg.Registered {
			t.Fatalf("shards=%d: layout covers %d of %d domains", shards, off, cfg.Registered)
		}
	}
}

// TestShardSpecimensSurviveSharding: the rare tail lands at the same
// stream positions regardless of decomposition, so the observed maxima
// exist in every sharded run too.
func TestShardSpecimensSurviveSharding(t *testing.T) {
	all, _ := collectShards(t, Config{Registered: 3000, Seed: 42}, 5)
	has500, has160 := false, false
	for i := range all {
		if all[i].Iterations == 500 {
			has500 = true
		}
		if all[i].SaltLen == 160 {
			has160 = true
		}
	}
	if !has500 || !has160 {
		t.Fatalf("specimens missing under sharding (500:%v 160B:%v)", has500, has160)
	}
}

func TestShardCursorSharesRegistry(t *testing.T) {
	cur, err := NewShardCursor(Config{Registered: 100, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cur.TLDs()); n != TotalTLDs {
		t.Fatalf("cursor registry has %d TLDs, want %d", n, TotalTLDs)
	}
	if len(cur.Operators()) == 0 {
		t.Fatal("cursor has no operator table")
	}
	a, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	// The registry and operator table are shared, not copied per shard.
	if &a.Universe.TLDs[0] != &b.Universe.TLDs[0] {
		t.Error("TLD registry copied per shard")
	}
	if a.Universe.Operators == nil || len(a.Universe.Operators) != len(b.Universe.Operators) {
		t.Error("operator table not shared")
	}
}

// TestShardPlannerMatchesCursor pins the plan/execute split: executing
// every ShardPlan standalone — and out of order — reproduces exactly
// what the ordered cursor streams. This is the property that lets a
// worker process generate shard N from its plan alone.
func TestShardPlannerMatchesCursor(t *testing.T) {
	cfg := Config{Registered: 1777, Seed: 23}
	p, err := NewShardPlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := p.Plan(5)
	if len(plans) != 5 {
		t.Fatalf("planned %d shards, want 5", len(plans))
	}
	// Plans tile the universe contiguously and carry monotone ordinals.
	off := 0
	for i, pl := range plans {
		if pl.Index != i || pl.Offset != off || pl.Size <= 0 {
			t.Fatalf("plan %d = %+v, want index %d offset %d", i, pl, i, off)
		}
		off += pl.Size
	}
	if off != cfg.Registered {
		t.Fatalf("plans cover %d of %d domains", off, cfg.Registered)
	}

	want, _ := collectShards(t, cfg, 5)
	// Execute in reverse order: shard generation must not depend on its
	// siblings having run.
	got := make([]DomainSpec, cfg.Registered)
	for i := len(plans) - 1; i >= 0; i-- {
		shard, err := p.GenerateShard(plans[i])
		if err != nil {
			t.Fatal(err)
		}
		copy(got[shard.Offset:], shard.Universe.Domains)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("domain %d differs under out-of-order execution: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestShardPlannerNSEC3Ordinals cross-checks the planner's replayed
// NSEC3 ordinal against the domains actually generated.
func TestShardPlannerNSEC3Ordinals(t *testing.T) {
	cfg := Config{Registered: 900, Seed: 5}
	p, err := NewShardPlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := p.Plan(4)
	seen := 0
	for _, pl := range plans {
		if pl.NSEC3Start != seen {
			t.Fatalf("plan %d NSEC3Start = %d, want %d", pl.Index, pl.NSEC3Start, seen)
		}
		shard, err := p.GenerateShard(pl)
		if err != nil {
			t.Fatal(err)
		}
		for i := range shard.Universe.Domains {
			if shard.Universe.Domains[i].NSEC3 {
				seen++
			}
		}
	}
	if seen == 0 {
		t.Fatal("universe generated no NSEC3 domains; test is vacuous")
	}
}

// TestShardPlannerRejectsBadPlan: a plan outside the universe is a
// typed refusal, not a panic — the distributed path feeds plans in
// from the wire.
func TestShardPlannerRejectsBadPlan(t *testing.T) {
	p, err := NewShardPlanner(Config{Registered: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []ShardPlan{
		{Index: 0, Offset: -1, Size: 10},
		{Index: 0, Offset: 90, Size: 20},
		{Index: 0, Offset: 0, Size: -1},
	} {
		if _, err := p.GenerateShard(bad); err == nil {
			t.Errorf("plan %+v accepted", bad)
		}
	}
}

func TestShardCursorRejectsBadConfig(t *testing.T) {
	if _, err := NewShardCursor(Config{Registered: 0}, 1); err == nil {
		t.Error("zero size accepted")
	}
	// Shard counts above the universe clamp instead of erroring.
	cur, err := NewShardCursor(Config{Registered: 3, Seed: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Shards() != 3 {
		t.Errorf("shards = %d, want clamp to 3", cur.Shards())
	}
}

// TestTruthIndependentOfShards: the planted truth of a universe folds
// to the same aggregate and operator stats whatever the shard split,
// and its totals are the universe's.
func TestTruthIndependentOfShards(t *testing.T) {
	p, err := NewShardPlanner(Config{Registered: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fold := func(shards int) *Truth {
		t.Helper()
		all := &Truth{Agg: compliance.NewAggregate(), Operators: analysis.NewOperatorStats()}
		for _, plan := range p.Plan(shards) {
			truth, err := p.Truth(plan)
			if err != nil {
				t.Fatal(err)
			}
			all.Agg.Merge(truth.Agg)
			all.Operators.Merge(truth.Operators)
		}
		return all
	}
	whole := fold(1)
	if whole.Agg.Total != 3000 || whole.Agg.NSEC3Enabled == 0 || whole.Operators.Total() != whole.Agg.NSEC3Enabled {
		t.Fatalf("truth of 3000 domains: %+v, %d operator rows", whole.Agg, whole.Operators.Total())
	}
	if sharded := fold(5); !reflect.DeepEqual(whole, sharded) {
		t.Errorf("five shards fold to another truth:\n%+v\n%+v", whole.Agg, sharded.Agg)
	}
}
