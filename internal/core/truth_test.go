package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/population"
	"repro/internal/scanner"
)

// checkTruth requires a survey report to be the truth its universe
// plants: the domain aggregate (both histograms and their maxima) and
// the operator stats are population.ShardPlanner.Truth folded over
// every shard plan of cfg, and the TLD aggregate is
// population.TLDTruth of the registry. On a difference it scans the
// universe again, zone by zone, and names the first domain whose
// measured class differs from its planted one.
func checkTruth(t *testing.T, cfg SurveyConfig, report *SurveyReport) {
	t.Helper()
	spec, planner := truthPlanner(t, cfg)
	agg, ops := compliance.NewAggregate(), analysis.NewOperatorStats()
	for _, plan := range planner.Plan(spec.Shards) {
		truth, err := planner.Truth(plan)
		if err != nil {
			t.Fatal(err)
		}
		agg.Merge(truth.Agg)
		ops.Merge(truth.Operators)
	}
	tlds := population.TLDTruth(planner.TLDs())
	if reflect.DeepEqual(report.Agg, agg) && reflect.DeepEqual(report.Operators, ops) && reflect.DeepEqual(report.TLDs, tlds) {
		return
	}
	t.Errorf("%+v: report differs from the planted truth\n domains %+v\n planted %+v\n TLDs    %+v\n planted %+v",
		cfg, report.Agg, agg, report.TLDs, tlds)
	t.Fatalf("%+v: %s", cfg, firstMisclassified(t, spec, planner))
}

// checkShardTruth is checkTruth for one shard's outcome: its aggregate
// and operators against the plan's truth, and shard 0's TLD scan
// against the registry's.
func checkShardTruth(t *testing.T, cfg SurveyConfig, plan population.ShardPlan, out *ShardOutcome) {
	t.Helper()
	spec, planner := truthPlanner(t, cfg)
	truth, err := planner.Truth(plan)
	if err != nil {
		t.Fatal(err)
	}
	tldsOK := plan.Index != 0 || (out.TLDs != nil && reflect.DeepEqual(*out.TLDs, population.TLDTruth(planner.TLDs())))
	if reflect.DeepEqual(out.Agg, truth.Agg) && reflect.DeepEqual(out.Operators, truth.Operators) && tldsOK {
		return
	}
	t.Errorf("%+v shard %d: outcome differs from the planted truth\n domains %+v\n planted %+v", cfg, plan.Index, out.Agg, truth.Agg)
	t.Fatalf("%+v: %s", cfg, firstMisclassified(t, spec, planner))
}

func truthPlanner(t *testing.T, cfg SurveyConfig) (SurveySpec, *population.ShardPlanner) {
	t.Helper()
	spec, err := cfg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	planner, err := population.NewShardPlanner(spec.populationConfig())
	if err != nil {
		t.Fatal(err)
	}
	return spec, planner
}

// firstMisclassified deploys and scans every shard of spec again, as
// the survey does, and describes the first zone (domains in universe
// order, then shard 0's TLDs) whose measured class or operator differs
// from what population plants for it.
func firstMisclassified(t *testing.T, spec SurveySpec, planner *population.ShardPlanner) string {
	t.Helper()
	for _, plan := range planner.Plan(spec.Shards) {
		shard, err := planner.GenerateShard(plan)
		if err != nil {
			t.Fatal(err)
		}
		u := shard.Universe
		var names []dnswire.Name
		planted := make(map[dnswire.Name]compliance.ZoneClass)
		for _, d := range u.Domains {
			names = append(names, d.Name)
			planted[d.Name] = population.PlantedClass(d)
		}
		if plan.Index == 0 {
			for _, tld := range u.TLDs {
				name, err := dnswire.FromLabels(tld.Name)
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, name)
				planted[name] = population.PlantedClass(population.DomainSpec{Name: name,
					DNSSEC: tld.DNSSEC, NSEC3: tld.NSEC3, Iterations: tld.Iterations, SaltLen: tld.SaltLen, OptOut: tld.OptOut})
			}
		}
		measured := scanEach(t, spec, plan.Index, u, names)
		for i, name := range names {
			r := measured[name]
			if r.Err != nil {
				return fmt.Sprintf("%s: scan failed: %v", name, r.Err)
			}
			if got, want := compliance.Classify(r.Facts), planted[name]; got != want {
				return fmt.Sprintf("%s: measured %+v, planted %+v", name, got, want)
			}
			if i >= len(u.Domains) || !planted[name].NSEC3Enabled {
				continue
			}
			want := []string{u.Operators[u.Domains[i].Operator].InfraDomain}
			if got := operatorKeys(r.Facts.NSHosts); !slices.Equal(got, want) {
				return fmt.Sprintf("%s: measured operator %v, planted %v", name, got, want)
			}
		}
	}
	return "every zone measured as planted; the difference is in the fold"
}

// scanEach deploys u as the survey deploys shard index and returns one
// scan result per name.
func scanEach(t *testing.T, spec SurveySpec, index int, u *population.Universe, names []dnswire.Name) map[dnswire.Name]scanner.Result {
	t.Helper()
	dep, err := population.Deploy(u, netsim.NewNetwork(spec.Seed+uint64(index)), DefaultInception, DefaultExpiration,
		population.WithLazySigning())
	if err != nil {
		t.Fatal(err)
	}
	sc := scanner.New(scanner.Config{
		Exchanger: dep.Hierarchy.Net,
		Resolver:  installScanResolver(dep.Hierarchy, nil, nil),
		Workers:   spec.Workers,
		Seed:      spec.Seed + 1 + uint64(index),
	})
	defer sc.Close()
	var mu sync.Mutex
	results := make(map[dnswire.Name]scanner.Result, len(names))
	err = sc.ScanAll(context.Background(), scanner.Names(names), func(int) scanner.Sink {
		return scanner.SinkFunc(func(r scanner.Result) {
			mu.Lock()
			defer mu.Unlock()
			results[r.Facts.Domain] = r
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}
