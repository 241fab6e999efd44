package resolver

import (
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/dnswire"
)

// referenceGroupRRsets groups a section the plain way: a map from
// (owner, type or covered type) to the group's position, groups in
// order of first appearance, signature-only groups dropped.
func referenceGroupRRsets(rrs []dnswire.RR) []rrGroup {
	type key struct {
		name dnswire.Name
		t    dnswire.Type
	}
	idx := make(map[key]int)
	var out []rrGroup
	for _, rr := range rrs {
		k, sig := key{rr.Name, rr.Type()}, false
		if s, ok := rr.Data.(dnswire.RRSIG); ok {
			k, sig = key{rr.Name, s.TypeCovered}, true
		}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, rrGroup{})
		}
		if sig {
			out[i].sigs = append(out[i].sigs, rr)
		} else {
			out[i].rrs = append(out[i].rrs, rr)
		}
	}
	var kept []rrGroup
	for _, g := range out {
		if len(g.rrs) > 0 {
			kept = append(kept, g)
		}
	}
	return kept
}

// groupSections are sections shaped like what a validator meets: an
// answer with its signature, an NSEC3 proof with each record's RRSIG,
// signatures ahead of their data, a signature-only group, an RRSIG
// covering RRSIG, and interleaved owners.
func groupSections() map[string][]dnswire.RR {
	a := dnswire.MustParseName("a.example.")
	b := dnswire.MustParseName("b.example.")
	rr := func(name dnswire.Name, data dnswire.RData) dnswire.RR {
		return dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: 300, Data: data}
	}
	host := func(last byte) dnswire.RData { return dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, last})} }
	sig := func(covered dnswire.Type, tag uint16) dnswire.RData {
		return dnswire.RRSIG{TypeCovered: covered, KeyTag: tag, SignerName: dnswire.MustParseName("example.")}
	}
	txt := dnswire.TXT{Strings: []string{"t"}}
	return map[string][]dnswire.RR{
		"empty":       nil,
		"answer":      {rr(a, host(1)), rr(a, host(2)), rr(a, sig(dnswire.TypeA, 1))},
		"sig first":   {rr(a, sig(dnswire.TypeA, 1)), rr(a, host(1)), rr(a, sig(dnswire.TypeA, 2)), rr(a, host(2))},
		"sig only":    {rr(b, sig(dnswire.TypeTXT, 1)), rr(a, host(1)), rr(a, sig(dnswire.TypeA, 1))},
		"all sigs":    {rr(a, sig(dnswire.TypeA, 1)), rr(b, sig(dnswire.TypeA, 2))},
		"covers sigs": {rr(a, sig(dnswire.TypeRRSIG, 1)), rr(a, host(1))},
		"interleaved": {
			rr(a, host(1)), rr(b, txt), rr(a, sig(dnswire.TypeA, 1)), rr(b, host(3)),
			rr(b, sig(dnswire.TypeTXT, 2)), rr(a, txt), rr(a, host(2)), rr(b, sig(dnswire.TypeA, 3)),
			rr(a, sig(dnswire.TypeTXT, 4)), rr(a, sig(dnswire.TypeA, 5)),
		},
	}
}

// TestGroupRRsetsMatchesReference holds groupRRsets to the map-based
// reference: the same groups in the same order, each with the same
// records and signatures in section order.
func TestGroupRRsetsMatchesReference(t *testing.T) {
	for name, section := range groupSections() {
		got, want := groupRRsets(section), referenceGroupRRsets(section)
		if len(got) != len(want) {
			t.Errorf("%s: %d groups, reference %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if len(got[i].sigs) != len(want[i].sigs) || len(got[i].sigs) > 0 && !reflect.DeepEqual(got[i].sigs, want[i].sigs) ||
				!reflect.DeepEqual(got[i].rrs, want[i].rrs) {
				t.Errorf("%s: group %d = %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	}
}

// groupSink keeps groupRRsets' result live so escape analysis cannot
// stack-allocate it.
var groupSink []rrGroup

// TestGroupRRsetsAllocs pins the grouping every validated answer and
// authority section goes through at two allocations: the groups and
// one array holding every group's records and signatures.
func TestGroupRRsetsAllocs(t *testing.T) {
	for name, section := range groupSections() {
		if n := testing.AllocsPerRun(100, func() {
			groupSink = groupRRsets(section)
		}); n > 2 {
			t.Errorf("%s: groupRRsets allocates %.1f times per run, want at most 2", name, n)
		}
	}
}
