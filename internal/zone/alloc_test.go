package zone

import (
	"testing"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// TestEvaluateNXDOMAINAllocs pins what a negative answer may allocate.
// The proof's six authority records (three NSEC3 RRs, three RRSIGs) are
// appended as they were built at signing, so an NXDOMAIN with DO costs
// the Answer, its authority slice, and one candidate wildcard name per
// missing ancestor WildcardAt tries — 3 or 4 here; it was 63 when every
// RR was rebuilt per query. The bound leaves room for one more
// ancestor, not for a rebuilt record.
func TestEvaluateNXDOMAINAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	s := signTestZone(t, SignConfig{Denial: DenialNSEC3, NSEC3: nsec3.Params{Iterations: 0}})
	for _, q := range []dnswire.Name{name("nope.example.com"), name("x.y.www.example.com"), name("z.b.example.com")} {
		if a, err := s.Evaluate(q, dnswire.TypeA, true); err != nil || a.Kind != KindNXDOMAIN {
			t.Fatalf("%s: %v, %v", q, a, err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := s.Evaluate(q, dnswire.TypeA, true); err != nil {
				t.Fatal(err)
			}
		}); n > 6 {
			t.Errorf("Evaluate(%s) NXDOMAIN with DO allocates %.1f times per run, want <= 6", q, n)
		} else {
			t.Logf("Evaluate(%s): %.1f allocs", q, n)
		}
	}
}
