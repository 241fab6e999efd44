package authserver

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// TestMixedTableRouting: signed and still-pending zones share one apex
// table, so routing must not care which kind an entry is — deepest
// apex wins, a DS at a cut goes to the hosted parent, and a name above
// every apex is nobody's.
func TestMixedTableRouting(t *testing.T) {
	s := New()
	var calls atomic.Int64
	// Lazy child under a signed parent, and the reverse.
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	s.AddLazyZone(dnswire.MustParseName("sub.example.com"), lazySignFunc("sub.example.com", &calls))
	s.AddLazyZone(dnswire.MustParseName("example.org"), lazySignFunc("example.org", &calls))
	s.AddZone(buildZone(t, "sub.example.org", zone.DenialNSEC3))
	// A cut whose parent is hosted elsewhere.
	s.AddZone(buildZone(t, "lonely.test", zone.DenialNSEC))

	for _, tc := range []struct {
		qname string
		qtype dnswire.Type
		apex  string // "" = no hosted zone (REFUSED)
	}{
		{"www.example.com", dnswire.TypeA, "example.com."},
		{"sub.example.com", dnswire.TypeA, "sub.example.com."},
		{"a.b.sub.example.com", dnswire.TypeA, "sub.example.com."},
		{"sub.example.com", dnswire.TypeDS, "example.com."},
		{"www.sub.example.com", dnswire.TypeDS, "sub.example.com."},
		{"x.example.org", dnswire.TypeA, "example.org."},
		{"www.sub.example.org", dnswire.TypeA, "sub.example.org."},
		{"sub.example.org", dnswire.TypeDS, "example.org."},
		{"lonely.test", dnswire.TypeDS, "lonely.test."},
		{"com", dnswire.TypeA, ""},
		{"org", dnswire.TypeDS, ""},
		{".", dnswire.TypeNS, ""},
		{"subexample.com", dnswire.TypeA, ""},
	} {
		qname := dnswire.MustParseName(tc.qname)
		sz, err := s.zoneForQuery(context.Background(), qname, tc.qtype)
		switch {
		case tc.apex == "":
			if !errors.Is(err, errNoZone) {
				t.Errorf("%s %s: routed to %v (err %v), want errNoZone", tc.qname, tc.qtype, sz, err)
			}
			if resp := query(t, s, tc.qname, tc.qtype, true); resp.Header.RCode != dnswire.RCodeRefused {
				t.Errorf("%s %s: rcode %s, want REFUSED", tc.qname, tc.qtype, resp.Header.RCode)
			}
		case err != nil:
			t.Errorf("%s %s: %v", tc.qname, tc.qtype, err)
		case string(sz.Zone.Apex) != tc.apex:
			t.Errorf("%s %s: answered by %s, want %s", tc.qname, tc.qtype, sz.Zone.Apex, tc.apex)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("lazy sign funcs ran %d times, want 2 (once per lazy apex)", got)
	}
	if got := s.Zones(); len(got) != 5 {
		t.Errorf("Zones = %v, want the 5 hosted apexes", got)
	}
}

// TestLazyStatsSurvivesReRegistration: LazyStats is read off the table,
// so registering an apex again — lazily, or signed over a pending lazy
// entry — replaces the entry instead of leaving a phantom pending zone
// behind (which would inflate survey_zones_untouched_total forever).
func TestLazyStatsSurvivesReRegistration(t *testing.T) {
	s := New()
	var first, second atomic.Int64
	twice := dnswire.MustParseName("twice.example")
	s.AddLazyZone(twice, lazySignFunc("twice.example", &first))
	s.AddLazyZone(twice, lazySignFunc("twice.example", &second))
	if m, p := s.LazyStats(); m != 0 || p != 1 {
		t.Fatalf("lazy twice: materialized=%d pending=%d, want 0/1", m, p)
	}
	if resp := query(t, s, "www.twice.example", dnswire.TypeA, true); resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("twice.example: rcode %s", resp.Header.RCode)
	}
	if first.Load() != 0 || second.Load() != 1 {
		t.Fatalf("sign funcs ran %d/%d times, want 0/1 (the replacement only)", first.Load(), second.Load())
	}
	if m, p := s.LazyStats(); m != 1 || p != 0 {
		t.Fatalf("lazy twice, queried: materialized=%d pending=%d, want 1/0", m, p)
	}

	var replaced atomic.Int64
	s.AddLazyZone(dnswire.MustParseName("replaced.example"), lazySignFunc("replaced.example", &replaced))
	s.AddZone(buildZone(t, "replaced.example", zone.DenialNSEC))
	if m, p := s.LazyStats(); m != 1 || p != 0 {
		t.Fatalf("signed over pending: materialized=%d pending=%d, want 1/0", m, p)
	}
	if resp := query(t, s, "www.replaced.example", dnswire.TypeA, true); resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("replaced.example: rcode %s", resp.Header.RCode)
	}
	if got := replaced.Load(); got != 0 {
		t.Fatalf("replaced lazy sign func ran %d times, want 0", got)
	}
}

// TestZoneForAllocFree pins the routing contract Handle's hot path
// rests on: finding the zone for a query — installed signed or
// materialized lazily, alone or among thousands of apexes — allocates
// nothing.
func TestZoneForAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	ctx := context.Background()
	qname := dnswire.MustParseName("a.b.www.target.example")
	for _, lazy := range []bool{false, true} {
		for _, hosted := range []int{1, 2000} {
			s := New()
			var calls atomic.Int64
			if lazy {
				s.AddLazyZone(dnswire.MustParseName("target.example"), lazySignFunc("target.example", &calls))
			} else {
				s.AddZone(buildZone(t, "target.example", zone.DenialNSEC3))
			}
			for i := 1; i < hosted; i++ {
				apex := fmt.Sprintf("filler-%d.example", i)
				s.AddLazyZone(dnswire.MustParseName(apex), lazySignFunc(apex, &calls))
			}
			if _, ok := s.ZoneFor(ctx, qname); !ok { // materializes a lazy target
				t.Fatalf("lazy=%v, %d apexes: no zone for %s", lazy, hosted, qname)
			}
			if n := testing.AllocsPerRun(200, func() {
				if _, ok := s.ZoneFor(ctx, qname); !ok {
					t.Fatal("zone vanished")
				}
			}); n != 0 {
				t.Errorf("lazy=%v, %d apexes: ZoneFor allocates %.1f times per run, want 0", lazy, hosted, n)
			}
		}
	}
}
