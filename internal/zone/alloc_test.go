package zone

import (
	"testing"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// TestEvaluateNXDOMAINAllocs pins what a negative answer may allocate
// through Evaluate, in a zone that owns a wildcard. The proof's six
// authority records (three NSEC3 RRs, three RRSIGs) are appended as they
// were built at signing, so an NXDOMAIN with DO costs the Answer, its
// authority slice, and one candidate wildcard name per missing ancestor
// WildcardAt tries — 3 or 4 here; it was 63 when every RR was rebuilt
// per query. The bound leaves room for one more ancestor, not for a
// rebuilt record.
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

// TestEvaluateIntoReusedAnswerAllocs: in a zone with no cut and no
// wildcard — what a measurement's own zone and every synthetic domain
// is — an answer evaluated into an Answer that has served one before
// allocates nothing, positive or NXDOMAIN, once its signatures exist:
// every record is the zone's own and the sections are the caller's.
func TestEvaluateIntoReusedAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	z := New(name("flat.example"), 300)
	z.MustAdd(dnswire.RR{Name: z.Apex, Class: dnswire.ClassIN, TTL: 3600, Data: soaData()})
	z.MustAdd(dnswire.RR{Name: z.Apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: name("ns.elsewhere.test")}})
	for _, l := range []string{"h00", "h01", "h02", "h03"} {
		z.MustAdd(dnswire.RR{Name: z.Apex.MustChild(l), Class: dnswire.ClassIN, TTL: 300, Data: dnswire.TXT{Strings: []string{"x"}}})
	}
	s, err := z.Sign(SignConfig{Denial: DenialNSEC3, NSEC3: nsec3.Params{Iterations: 0}, Inception: tInception, Expiration: tExpiration})
	if err != nil {
		t.Fatal(err)
	}
	if s.hasCuts || s.hasWildcards {
		t.Fatalf("a flat zone was signed with hasCuts=%v hasWildcards=%v", s.hasCuts, s.hasWildcards)
	}
	if rich := signTestZone(t, SignConfig{Denial: DenialNSEC3}); !rich.hasCuts || !rich.hasWildcards {
		t.Fatalf("the canonical zone was signed with hasCuts=%v hasWildcards=%v", rich.hasCuts, rich.hasWildcards)
	}
	var a Answer
	for _, tc := range []struct {
		qname dnswire.Name
		qtype dnswire.Type
		kind  AnswerKind
		n     int // records in the section the answer fills
	}{
		{name("h02.flat.example"), dnswire.TypeTXT, KindSuccess, 2},
		{name("x.y.nope.flat.example"), dnswire.TypeA, KindNXDOMAIN, 8},
	} {
		evaluate := func() {
			if err := s.EvaluateInto(&a, tc.qname, tc.qtype, true); err != nil {
				t.Fatal(err)
			}
		}
		evaluate()
		if got := len(a.Answer) + len(a.Authority); a.Kind != tc.kind || got != tc.n || len(a.Additional) != 0 {
			t.Fatalf("%s %s: %s with %d records, want %s with %d", tc.qname, tc.qtype, a.Kind, got, tc.kind, tc.n)
		}
		if n := testing.AllocsPerRun(100, evaluate); n != 0 {
			t.Errorf("EvaluateInto(%s %s) into a reused Answer allocates %.0f times, want 0", tc.qname, tc.qtype, n)
		}
	}
}
