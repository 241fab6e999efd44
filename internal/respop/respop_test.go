package respop

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/testbed"
	"repro/internal/zone"
)

func TestProfilesAreDistinctAndNamed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Profiles() {
		if p.Policy.Name == "" || p.Vendor == "" || p.Note == "" {
			t.Errorf("profile %q incompletely documented", p.Policy.Name)
		}
		if seen[p.Policy.Name] {
			t.Errorf("duplicate profile %q", p.Policy.Name)
		}
		seen[p.Policy.Name] = true
	}
}

func TestVendorLimitsMatchPaper(t *testing.T) {
	cases := []struct {
		p              Profile
		insecure, fail int
	}{
		{BIND2021, 150, resolver.NoLimit},
		{BINDPatched, 50, resolver.NoLimit},
		{Unbound2021, 150, resolver.NoLimit},
		{GooglePublicDNS, 100, resolver.NoLimit},
		{Quad9, 150, resolver.NoLimit},
		{Cloudflare, resolver.NoLimit, 150},
		{OpenDNS, resolver.NoLimit, 150},
		{Technitium, resolver.NoLimit, 100},
		{StrictZero, resolver.NoLimit, 0},
	}
	for _, c := range cases {
		if c.p.Policy.InsecureLimit != c.insecure || c.p.Policy.ServfailLimit != c.fail {
			t.Errorf("%s: limits %d/%d, want %d/%d", c.p.Policy.Name,
				c.p.Policy.InsecureLimit, c.p.Policy.ServfailLimit, c.insecure, c.fail)
		}
	}
	// EDE codes: Google 5, OpenDNS 12, Cloudflare/Technitium 27,
	// Quad9/Unbound none (§5.2).
	if GooglePublicDNS.Policy.EDE != dnswire.EDEDNSSECIndeterminate {
		t.Error("Google EDE")
	}
	if OpenDNS.Policy.EDE != dnswire.EDENSECMissing {
		t.Error("OpenDNS EDE")
	}
	if Cloudflare.Policy.EDE != dnswire.EDEUnsupportedNSEC3Iter {
		t.Error("Cloudflare EDE")
	}
	if Quad9.Policy.EDE != 0 || Unbound2021.Policy.EDE != 0 {
		t.Error("Quad9/Unbound must not attach EDE")
	}
	if Technitium.Policy.EDEText == "" {
		t.Error("Technitium must carry EXTRA-TEXT")
	}
}

func TestMixesNormalize(t *testing.T) {
	for _, q := range []Quadrant{OpenIPv4, OpenIPv6, ClosedIPv4, ClosedIPv6} {
		mix := Mix(q)
		total := 0.0
		for _, s := range mix {
			if s.Weight <= 0 {
				t.Errorf("%s: non-positive weight for %s", q, s.Profile.Policy.Name)
			}
			total += s.Weight
		}
		if total <= 0.5 || total > 1.2 {
			t.Errorf("%s: mix total %.3f out of sane range", q, total)
		}
	}
}

func TestAllocateLargestRemainder(t *testing.T) {
	mix := []Share{
		{Profile: BIND2021, Weight: 0.7},
		{Profile: GooglePublicDNS, Weight: 0.25},
		{Profile: Item7Violator, Weight: 0.05},
	}
	out := allocateCounts(mix, 100)
	total := 0
	for _, c := range out {
		total += c
	}
	if total != 100 {
		t.Fatalf("allocated %d", total)
	}
	if out[0] != 70 || out[1] != 25 || out[2] != 5 {
		t.Fatalf("allocation %v", out)
	}
	// Rare profiles get at least one slot when n >= len(mix).
	rare := []Share{
		{Profile: BIND2021, Weight: 0.999},
		{Profile: Item7Violator, Weight: 0.001},
	}
	out = allocateCounts(rare, 10)
	if out[1] != 1 {
		t.Fatalf("rare profile missing: %v", out)
	}
}

// TestAllocateFullScaleCalibration pins the paper's absolute counts:
// at the full 105,200-validator open-IPv4 scale, the calibrated mix
// must yield exactly 92 Technitium boxes and 418 strict-zero boxes
// (§5.2).
func TestAllocateFullScaleCalibration(t *testing.T) {
	mix := Mix(OpenIPv4)
	counts := allocateCounts(mix, 105200)
	byName := map[string]int{}
	for i, c := range counts {
		byName[mix[i].Profile.Policy.Name] = c
	}
	if byName["technitium"] != 92 {
		t.Errorf("technitium = %d, want 92", byName["technitium"])
	}
	if byName["strict-zero"] != 418 {
		t.Errorf("strict-zero = %d, want 418", byName["strict-zero"])
	}
}

func TestDefaultCountsScaling(t *testing.T) {
	c := DefaultCounts(200)
	if c[OpenIPv4] != 526 {
		t.Errorf("OpenIPv4 = %d", c[OpenIPv4])
	}
	// Small quadrants floor at 50.
	if c[ClosedIPv6] != 50 {
		t.Errorf("ClosedIPv6 = %d", c[ClosedIPv6])
	}
	// den=1: full paper counts.
	full := DefaultCounts(1)
	if full[OpenIPv4] != 105200 || full[ClosedIPv4] != 1236 || full[ClosedIPv6] != 689 {
		t.Errorf("full counts: %v", full)
	}
}

// buildSmallWorld constructs a minimal hierarchy for deployment tests.
func buildSmallWorld(t testing.TB) *testbed.Hierarchy {
	t.Helper()
	b := testbed.NewBuilder(1709251200, 1717200000)
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.Root,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(198, 41, 0, 4),
	})
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.MustParseName("com"),
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3, OptOut: true},
		Server: netsim.Addr4(192, 5, 6, 30),
	})
	testbed.InstallTestbed(b, netsim.Addr4(203, 0, 113, 10), netsim.Addr6(0x10))
	h, err := b.Build(netsim.NewNetwork(5))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestDeployCreatesWorkingResolvers(t *testing.T) {
	h := buildSmallWorld(t)
	counts := map[Quadrant]int{OpenIPv4: 20, OpenIPv6: 5, ClosedIPv4: 5, ClosedIPv6: 5}
	p, err := NewPlanner(DeployConfig{
		Counts: counts, Seed: 3,
		Now: func() uint32 { return 1712000000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	instances, err := DeployShard(h, p, p.Plan(1)[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 35 {
		t.Fatalf("deployed %d", len(instances))
	}
	// Addresses unique, registered, and quadrant-correct.
	seen := map[string]bool{}
	for _, inst := range instances {
		key := inst.Addr.String()
		if seen[key] {
			t.Fatalf("duplicate address %s", key)
		}
		seen[key] = true
		if _, ok := h.Net.Lookup(inst.Addr); !ok {
			t.Fatalf("resolver %s not registered", key)
		}
		is6 := inst.Addr.Addr().Is6()
		want6 := inst.Quadrant == OpenIPv6 || inst.Quadrant == ClosedIPv6
		if is6 != want6 {
			t.Fatalf("%s: IPv6=%v for quadrant %s", key, is6, inst.Quadrant)
		}
	}
	// One of them answers a real probe.
	tr, err := testbed.ProbeResolver(context.Background(), h.Net, instances[0].Addr, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	c := compliance.ClassifyResolver(tr)
	if !c.IsValidator {
		t.Fatalf("first instance (%s) is not a validator", instances[0].Profile.Policy.Name)
	}
}

func TestDeployShareAccuracy(t *testing.T) {
	n := 1000
	p, err := NewPlanner(DeployConfig{
		Counts: map[Quadrant]int{OpenIPv4: n}, Seed: 3,
		Now: func() uint32 { return 1712000000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		a, err := p.At(i)
		if err != nil {
			t.Fatal(err)
		}
		counts[a.Profile.Policy.Name]++
	}
	for _, s := range Mix(OpenIPv4) {
		got := float64(counts[s.Profile.Policy.Name]) / float64(n)
		if math.Abs(got-s.Weight) > 0.01 {
			t.Errorf("%s: share %.3f, want %.3f", s.Profile.Policy.Name, got, s.Weight)
		}
	}
}

func TestDeployEmptyFails(t *testing.T) {
	_, err := NewPlanner(DeployConfig{Counts: map[Quadrant]int{}})
	if err == nil {
		t.Fatal("empty deployment accepted")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Counts" {
		t.Fatalf("want *ConfigError on Counts, got %v", err)
	}
}

func TestQuadrantStrings(t *testing.T) {
	want := map[Quadrant]string{
		OpenIPv4: "Open, IPv4", OpenIPv6: "Open, IPv6",
		ClosedIPv4: "Closed, IPv4", ClosedIPv6: "Closed, IPv6",
	}
	for q, s := range want {
		if q.String() != s {
			t.Errorf("%d.String() = %q", q, q.String())
		}
	}
}
