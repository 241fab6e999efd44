package population

import (
	"math"
	"testing"
	"testing/quick"
)

func genUniverse(t testing.TB, n int) *Universe {
	t.Helper()
	u, err := Generate(Config{Registered: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestGenerateDeterministic(t *testing.T) {
	a := genUniverse(t, 5000)
	b := genUniverse(t, 5000)
	if len(a.Domains) != len(b.Domains) {
		t.Fatal("sizes differ")
	}
	for i := range a.Domains {
		if a.Domains[i] != b.Domains[i] {
			t.Fatalf("domain %d differs: %+v vs %+v", i, a.Domains[i], b.Domains[i])
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Registered: 0}); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestGlobalMarginalsMatchPaper(t *testing.T) {
	// At 100 K domains the sampled marginals must sit close to the
	// calibration targets (§5.1 / Figure 1).
	u := genUniverse(t, 100000)
	var dnssec, nsec3, zeroIter, noSalt, le25, saltLE10, optOut int
	maxIter, maxSalt := 0, 0
	for i := range u.Domains {
		d := &u.Domains[i]
		if d.DNSSEC {
			dnssec++
		}
		if !d.NSEC3 {
			continue
		}
		nsec3++
		if d.Iterations == 0 {
			zeroIter++
		}
		if d.Iterations <= 25 {
			le25++
		}
		if d.SaltLen == 0 {
			noSalt++
		}
		if d.SaltLen <= 10 {
			saltLE10++
		}
		if d.OptOut {
			optOut++
		}
		if int(d.Iterations) > maxIter {
			maxIter = int(d.Iterations)
		}
		if d.SaltLen > maxSalt {
			maxSalt = d.SaltLen
		}
	}
	approx := func(name string, got, want, tolPct float64) {
		t.Helper()
		if math.Abs(got-want) > tolPct {
			t.Errorf("%s = %.2f %%, want %.2f ± %.1f", name, got, want, tolPct)
		}
	}
	approx("DNSSEC rate", 100*float64(dnssec)/float64(len(u.Domains)), 8.8, 1.0)
	approx("NSEC3|DNSSEC", 100*float64(nsec3)/float64(dnssec), 58.9, 3.0)
	approx("zero iterations", 100*float64(zeroIter)/float64(nsec3), 12.2, 2.5)
	approx("no salt", 100*float64(noSalt)/float64(nsec3), 8.6, 2.5)
	approx("iterations<=25", 100*float64(le25)/float64(nsec3), 99.9, 0.5)
	approx("salt<=10B", 100*float64(saltLE10)/float64(nsec3), 97.2, 1.5)
	approx("opt-out", 100*float64(optOut)/float64(nsec3), 6.4, 2.0)
	if maxIter != 500 {
		t.Errorf("max iterations %d, want 500 (injected)", maxIter)
	}
	if maxSalt != 160 {
		t.Errorf("max salt %d, want 160 (injected)", maxSalt)
	}
}

func TestRareSpecimensSurviveAnyScale(t *testing.T) {
	for _, n := range []int{300, 3000} {
		u := genUniverse(t, n)
		nsec3 := 0
		for i := range u.Domains {
			if u.Domains[i].NSEC3 {
				nsec3++
			}
		}
		if nsec3 == 0 {
			continue
		}
		has500, has160 := false, false
		for i := range u.Domains {
			if u.Domains[i].Iterations == 500 {
				has500 = true
			}
			if u.Domains[i].SaltLen == 160 {
				has160 = true
			}
		}
		if !has500 || !has160 {
			t.Errorf("n=%d: specimens missing (500:%v 160B:%v)", n, has500, has160)
		}
	}
}

func TestOperatorSharesSumToOne(t *testing.T) {
	total := 0.0
	for _, op := range Operators() {
		total += op.Share
		wsum := 0.0
		for _, p := range op.Profiles {
			wsum += p.Weight
		}
		if math.Abs(wsum-1.0) > 1e-6 {
			t.Errorf("%s profile weights sum to %f", op.Name, wsum)
		}
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Errorf("operator shares sum to %f", total)
	}
}

func TestTable2OperatorAssignment(t *testing.T) {
	u := genUniverse(t, 100000)
	counts := map[string]int{}
	nsec3 := 0
	for i := range u.Domains {
		if u.Domains[i].NSEC3 {
			counts[u.Domains[i].Operator]++
			nsec3++
		}
	}
	sq := 100 * float64(counts["Squarespace"]) / float64(nsec3)
	if math.Abs(sq-39.4) > 4 {
		t.Errorf("Squarespace share %.1f %%, paper 39.4 %%", sq)
	}
	one := 100 * float64(counts["one.com"]) / float64(nsec3)
	if math.Abs(one-9.5) > 2.5 {
		t.Errorf("one.com share %.1f %%, paper 9.5 %%", one)
	}
}

func TestTLDRegistryExactBuckets(t *testing.T) {
	tlds := GenerateTLDs(1)
	agg := AggregateTLDs(tlds)
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"total", agg.Total, TotalTLDs},
		{"dnssec", agg.DNSSEC, DNSSECTLDs},
		{"nsec3", agg.NSEC3, NSEC3TLDs},
		{"zero-iter", agg.ZeroIterations, ZeroIterTLDs},
		{"at-100", agg.AtHundred, IdentityDigital},
		{"salt-none", agg.SaltNone, saltNoneTLDs},
		{"salt-8", agg.Salt8, salt8TLDs},
		{"salt-10", agg.Salt10, salt10TLDs},
		{"opt-out", agg.OptOut, optOutTLDs},
		{"open-zone-data", agg.OpenZoneData, openZoneDataTLDs},
		{"identity-digital", agg.IdentityDigitalTLDs, IdentityDigital},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// Every ID TLD uses exactly 100 iterations.
	for _, s := range tlds {
		if s.Registry == IdentityDigitalName && s.Iterations != 100 {
			t.Errorf("%s: ID TLD with %d iterations", s.Name, s.Iterations)
		}
	}
	// All named TLDs that domains live under exist.
	names := map[string]bool{}
	for _, s := range tlds {
		names[s.Name] = true
	}
	for _, tt := range tldTable {
		if !names[tt.name] {
			t.Errorf("TLD table entry %s missing from registry", tt.name)
		}
	}
}

func TestRankedUniverseMarginals(t *testing.T) {
	u, err := GenerateRanked(Config{Registered: 30000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var dnssec, nsec3, zero, nosalt, both int
	ranks := map[int]bool{}
	for i := range u.Domains {
		d := &u.Domains[i]
		if d.Rank == 0 {
			t.Fatal("unranked domain in fully ranked universe")
		}
		if ranks[d.Rank] {
			t.Fatalf("duplicate rank %d", d.Rank)
		}
		ranks[d.Rank] = true
		if d.DNSSEC {
			dnssec++
		}
		if !d.NSEC3 {
			continue
		}
		nsec3++
		if d.Iterations == 0 {
			zero++
		}
		if d.SaltLen == 0 {
			nosalt++
		}
		if d.Iterations == 0 && d.SaltLen == 0 {
			both++
		}
	}
	approx := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.1f %%, want %.1f ± %.1f", name, got, want, tol)
		}
	}
	approx("ranked DNSSEC", 100*float64(dnssec)/float64(len(u.Domains)), 6.66, 1.0)
	approx("ranked NSEC3|DNSSEC", 100*float64(nsec3)/float64(dnssec), 40.8, 5.0)
	approx("ranked zero-iter", 100*float64(zero)/float64(nsec3), 22.8, 6.0)
	approx("ranked no-salt", 100*float64(nosalt)/float64(nsec3), 23.6, 6.0)
	approx("ranked both", 100*float64(both)/float64(nsec3), 12.7, 5.0)
}

func TestPropDeterministicSalt(t *testing.T) {
	f := func(n uint8, seed uint64) bool {
		want := int(n % 64)
		a := deterministicSalt(want, seed)
		b := deterministicSalt(want, seed)
		if len(a) != want || len(b) != want {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParamProfileParams(t *testing.T) {
	p := ParamProfile{Iterations: 7, SaltLen: 12}
	params := p.Params(99)
	if params.Iterations != 7 || len(params.Salt) != 12 {
		t.Fatalf("params = %+v", params)
	}
	if params.RFC9276Compliant() {
		t.Fatal("non-compliant profile marked compliant")
	}
}
