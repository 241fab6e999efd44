package atlas

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/testbed"
)

func buildWorldWithResolvers(t testing.TB, n int) (*testbed.Hierarchy, []*respop.Instance) {
	t.Helper()
	b := testbed.NewBuilder(1709251200, 1717200000)
	testbed.InstallWorld(b)
	h, err := b.Build(netsim.NewNetwork(8))
	if err != nil {
		t.Fatal(err)
	}
	planner, err := respop.NewPlanner(respop.DeployConfig{
		Counts: map[respop.Quadrant]int{respop.ClosedIPv4: n},
		Seed:   8,
		Now:    func() uint32 { return 1712000000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	instances, err := respop.DeployShard(h, planner, planner.Plan(1)[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, instances
}

func probesFor(instances []*respop.Instance) []Probe {
	probes := make([]Probe, len(instances))
	for i, inst := range instances {
		probes[i] = Probe{ID: i + 1, Resolver: inst.Addr}
	}
	return probes
}

func TestMeasureStripsEDE(t *testing.T) {
	h, instances := buildWorldWithResolvers(t, 15)
	p := &Platform{Exchanger: h.Net, MaxConcurrent: 4}
	results := p.Measure(context.Background(), probesFor(instances), "t1")
	if len(results) != 15 {
		t.Fatalf("results = %d", len(results))
	}
	validators := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("probe %d: %v", r.Probe.ID, r.Err)
		}
		for _, o := range r.Transcript.Observations {
			if len(o.EDE) != 0 {
				t.Fatalf("probe %d: EDE leaked through Atlas (%v)", r.Probe.ID, o.EDE)
			}
		}
		c := compliance.ClassifyResolver(r.Transcript)
		if c.IsValidator {
			validators++
		}
		if c.SupportsEDE() {
			t.Fatal("classification saw EDE through Atlas")
		}
	}
	if validators == 0 {
		t.Fatal("no validators among closed resolvers")
	}
}

// TestMeasureResultsInProbeOrder pins the ordering contract the
// streaming study depends on: results[i] always belongs to probes[i],
// regardless of goroutine completion order.
func TestMeasureResultsInProbeOrder(t *testing.T) {
	h, instances := buildWorldWithResolvers(t, 9)
	p := &Platform{Exchanger: h.Net, MaxConcurrent: 3}
	probes := probesFor(instances)
	results := p.Measure(context.Background(), probes, "ord")
	for i, r := range results {
		if r.Probe.ID != probes[i].ID {
			t.Fatalf("result %d carries probe %d", i, r.Probe.ID)
		}
	}
}

func TestMeasurementUniqueLabelsPerProbe(t *testing.T) {
	h, instances := buildWorldWithResolvers(t, 3)
	p := &Platform{Exchanger: h.Net}
	results := p.Measure(context.Background(), probesFor(instances), "u")
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.Transcript.Unique] {
			t.Fatalf("duplicate unique label %s", r.Transcript.Unique)
		}
		seen[r.Transcript.Unique] = true
	}
}

func TestPlatformUnreachableResolver(t *testing.T) {
	h, _ := buildWorldWithResolvers(t, 1)
	p := &Platform{Exchanger: h.Net}
	results := p.Measure(context.Background(),
		[]Probe{{ID: 99, Resolver: netsim.Addr4(10, 99, 99, 99)}}, "x")
	// ProbeResolver records per-observation errors rather than failing
	// outright; the transcript exists with errored observations.
	tr := results[0].Transcript
	if tr == nil {
		t.Fatal("no transcript")
	}
	for _, o := range tr.Observations {
		if o.Err == nil {
			t.Fatal("unreachable resolver produced an answer")
		}
	}
	c := compliance.ClassifyResolver(tr)
	if c.IsValidator {
		t.Fatal("unreachable resolver classified as validator")
	}
	_ = resolver.NoLimit // keep the import for clarity of what's deployed
}

// blockingExchanger parks every exchange until its context dies — the
// worst-case platform backend for shutdown behavior.
type blockingExchanger struct{}

func (blockingExchanger) Exchange(ctx context.Context, _ netip.AddrPort, _ *dnswire.Message) (*dnswire.Message, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestMeasureCancel pins Measure under cancellation: a probe not yet
// started when ctx dies records ctx.Err(), so the batch drains and
// returns instead of probing on against a dead context.
func TestMeasureCancel(t *testing.T) {
	p := &Platform{Exchanger: blockingExchanger{}, MaxConcurrent: 1}
	probes := make([]Probe, 8)
	for i := range probes {
		probes[i] = Probe{ID: i + 1, Resolver: netsim.Addr4(192, 0, 2, byte(i+1))}
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	done := make(chan []MeasurementResult, 1)
	go func() { done <- p.Measure(ctx, probes, "cancel") }()
	select {
	case results := <-done:
		if len(results) != 8 {
			t.Fatalf("results = %d, want 8", len(results))
		}
		for i, r := range results {
			// Every slot must be filled, whether its probe ran
			// (transcript, possibly with per-probe errors folded in)
			// or was skipped on cancellation.
			if r.Probe.ID == 0 {
				t.Errorf("result %d: slot never filled", i)
			}
			if r.Err == nil && r.Transcript == nil {
				t.Errorf("probe %d: neither error nor transcript", r.Probe.ID)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Measure did not return after cancellation")
	}
}
