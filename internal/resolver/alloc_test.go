package resolver

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
)

// warmNXQueries returns a resolver of buildWorld's testbed whose trust
// chain, zone cuts and VerifyMemo are warm for the it-0 zone, and n
// fresh NXDOMAIN probe queries of that zone asking with DO, as the
// paper's probes do. Every probe sits under the zone's missing www
// label, so each one's denial proof is the same three NSEC3 records.
func warmNXQueries(t testing.TB, n int) (*Resolver, []*dnswire.Message) {
	t.Helper()
	h := buildWorld(t)
	r := New(Config{
		Roots:       h.Roots,
		TrustAnchor: h.TrustAnchor,
		Exchanger:   h.Net,
		Policy:      compliantPolicy(),
		Now:         func() uint32 { return tNow },
		VerifyMemo:  dnssec.NewVerifyMemo(nil),
	})
	for i := 0; i < 3; i++ {
		res, err := r.Resolve(context.Background(), benchProbe(0, fmt.Sprintf("warm-%d", i)), dnswire.TypeA)
		if err != nil || res.RCode != dnswire.RCodeNXDomain || !res.AD {
			t.Fatalf("warm-up probe: %v %+v", err, res)
		}
	}
	queries := make([]*dnswire.Message, n)
	for i := range queries {
		queries[i] = dnswire.NewQuery(uint16(i), benchProbe(0, fmt.Sprintf("fresh-%d", i)), dnswire.TypeA, true)
	}
	return r, queries
}

// TestResponsePathAllocs pins what one fresh NXDOMAIN probe costs a
// warm validator answering through Handle, the door the resolver study
// probes: one upstream exchange over the simulated network, the
// SOA and NSEC3 signature checks (memo hits), the proof, the verdict
// and the reply. The count is exact, so a change that saves or adds one
// allocation on this path fails here and must update it on purpose.
func TestResponsePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin: -race instrumentation allocates")
	}
	const runs = 200
	r, queries := warmNXQueries(t, runs+1)
	ctx := context.Background()
	from := netip.MustParseAddrPort("192.0.2.1:53000")
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		resp := r.Handle(ctx, from, queries[next])
		next++
		if resp.Header.RCode != dnswire.RCodeNXDomain || !resp.Header.AuthenticatedData {
			t.Fatalf("probe %d: rcode %s, AD %v", next-1, resp.Header.RCode, resp.Header.AuthenticatedData)
		}
	})
	// 32 before five cuts took 9: verifyGroup's RRset onto its stack
	// (4: the SOA and three NSEC3 groups), groupRRsets' groups into
	// the caller's buffer (1), authResponse by value (1), the reply,
	// its additional record and OPT in one block (2), and the upstream
	// response's Authority handed to the Result uncopied (1).
	const want = 23
	if got != want {
		t.Errorf("a fresh NXDOMAIN probe allocates %.0f times, want %d", got, want)
	}
}

// TestResultSectionsCapLimited holds a Result's sections to what a
// cached Result needs: every caller of a cached lookup gets the same
// Result, so appending to its Answers or Authority must reallocate and
// never write where another caller's append can see it. The aliases
// chase to a positive and to a missing target, so the chained result's
// sections are covered too.
func TestResultSectionsCapLimited(t *testing.T) {
	h := buildCNAMEWorld(t, 0)
	r := newTestResolver(t, h, compliantPolicy())
	filler := dnswire.RR{Name: dnswire.MustParseName("filler.test"), Class: dnswire.ClassIN, TTL: 1, Data: dnswire.TXT{Strings: []string{"x"}}}
	other := filler
	other.TTL = 2
	for _, name := range []string{"data.alias.test", "www.alias.test", "www.target.test", "gone.www.target.test"} {
		first := resolveA(t, r, name)
		answers, authority := slices.Clone(first.Answers), slices.Clone(first.Authority)
		if len(first.Answers) != cap(first.Answers) || len(first.Authority) != cap(first.Authority) {
			t.Errorf("%s: sections of length %d and %d have capacity %d and %d", name,
				len(first.Answers), len(first.Authority), cap(first.Answers), cap(first.Authority))
		}
		grownAns := append(first.Answers, filler)
		grownAuth := append(first.Authority, filler)

		second := resolveA(t, r, name)
		if !reflect.DeepEqual(second.Answers, answers) || !reflect.DeepEqual(second.Authority, authority) {
			t.Errorf("%s: cached result changed after an append to the first\n got %v / %v\nwant %v / %v",
				name, second.Answers, second.Authority, answers, authority)
		}
		_ = append(second.Answers, other)
		_ = append(second.Authority, other)
		if grownAns[len(grownAns)-1].TTL != filler.TTL || grownAuth[len(grownAuth)-1].TTL != filler.TTL {
			t.Errorf("%s: an append to the cached result overwrote another caller's append", name)
		}
	}
}

// TestVerifyGroupMemoHitAllocs pins verifyGroup on a memo hit at zero
// allocations: the RRset it checks lies on its stack, and the signature
// check answered by the memo allocates nothing.
func TestVerifyGroupMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin: -race instrumentation allocates")
	}
	r, _ := warmNXQueries(t, 0)
	ctx := context.Background()
	auth, err := r.iterate(ctx, benchProbe(0, "group"), dnswire.TypeA, 0)
	if err != nil {
		t.Fatal(err)
	}
	apex := responseZone(auth.msg, auth.apex)
	zt := r.zoneKeys(ctx, apex, 0)
	var buf [groupBuf]rrGroup
	groups := groupRRsets(buf[:0], auth.msg.Authority)
	if zt.status != StatusSecure || len(groups) == 0 || !r.verifyGroup(groups[0], apex, zt.keys) {
		t.Fatalf("zone %s: trust %s, %d groups, or the first does not verify", apex, zt.status, len(groups))
	}
	if n := testing.AllocsPerRun(100, func() {
		if !r.verifyGroup(groups[0], apex, zt.keys) {
			t.Fatal("the group stopped verifying")
		}
	}); n != 0 {
		t.Errorf("a memo-hit verifyGroup allocates %.1f times, want 0", n)
	}
}

// TestResultSectionsConcurrent has goroutines resolve the same aliases
// and NXDOMAIN names through one resolver and append to the Results
// they get — cached ones shared with every other goroutine. Under
// -race (ci.sh runs it ten times) a Result section that an append
// could write into shows as a race.
func TestResultSectionsConcurrent(t *testing.T) {
	h := buildCNAMEWorld(t, 0)
	r := newTestResolver(t, h, compliantPolicy())
	names := []dnswire.Name{
		dnswire.MustParseName("data.alias.test"),
		dnswire.MustParseName("www.alias.test"),
		dnswire.MustParseName("gone.www.target.test"),
		dnswire.MustParseName("nowhere.alias.test"),
	}
	filler := dnswire.RR{Name: dnswire.MustParseName("filler.test"), Class: dnswire.ClassIN, TTL: 1, Data: dnswire.TXT{Strings: []string{"x"}}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := names[(g+i)%len(names)]
				res, err := r.Resolve(context.Background(), name, dnswire.TypeA)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				answers := append(res.Answers, filler)
				authority := append(res.Authority, filler)
				if answers[len(answers)-1].TTL != filler.TTL || authority[len(authority)-1].TTL != filler.TTL {
					t.Errorf("%s: an append was overwritten", name)
				}
			}
		}()
	}
	wg.Wait()
}
