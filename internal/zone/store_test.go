package zone_test

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// refStore is a zone's record store in its most obvious shape: owner ->
// type -> records, one inner map per owner, every reader sorting what
// it returns. Zone must answer exactly what refStore answers, however
// it keeps its records.
type refStore struct {
	apex    dnswire.Name
	records map[dnswire.Name]map[dnswire.Type][]dnswire.RR
}

func newRefStore(apex dnswire.Name) *refStore {
	return &refStore{apex: apex, records: make(map[dnswire.Name]map[dnswire.Type][]dnswire.RR)}
}

func (r *refStore) add(rr dnswire.RR) {
	byType, ok := r.records[rr.Name]
	if !ok {
		byType = make(map[dnswire.Type][]dnswire.RR)
		r.records[rr.Name] = byType
	}
	byType[rr.Type()] = append(byType[rr.Type()], rr)
}

func (r *refStore) lookup(owner dnswire.Name, t dnswire.Type) []dnswire.RR {
	return r.records[owner][t]
}

func (r *refStore) typesAt(owner dnswire.Name) []dnswire.Type {
	out := make([]dnswire.Type, 0, len(r.records[owner]))
	for t := range r.records[owner] {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refStore) hasName(owner dnswire.Name) bool {
	_, ok := r.records[owner]
	return ok
}

func (r *refStore) names() []dnswire.Name {
	out := make([]dnswire.Name, 0, len(r.records))
	for n := range r.records {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return dnswire.CanonicalCompare(out[i], out[j]) < 0 })
	return out
}

func (r *refStore) allRecords() []dnswire.RR {
	var out []dnswire.RR
	for _, n := range r.names() {
		for _, t := range r.typesAt(n) {
			out = append(out, r.records[n][t]...)
		}
	}
	return out
}

// isDelegation, isGlue and authoritativeNames restate the RFC 1034
// classification over the map of maps: a cut owns NS below the apex,
// glue sits at or below a cut, and every other owner plus the empty
// non-terminals above it is authoritative, with NS and DS alone in a
// cut's bitmap.
func (r *refStore) isDelegation(n dnswire.Name) bool {
	return n != r.apex && len(r.lookup(n, dnswire.TypeNS)) > 0
}

func (r *refStore) isGlue(owner dnswire.Name) bool {
	for n := owner.Parent(); n != r.apex && n.IsSubdomainOf(r.apex) && !n.IsRoot(); n = n.Parent() {
		if r.isDelegation(n) {
			return true
		}
	}
	return false
}

func (r *refStore) authoritativeNames() map[dnswire.Name]dnswire.TypeBitmap {
	out := make(map[dnswire.Name]dnswire.TypeBitmap)
	for owner := range r.records {
		if r.isGlue(owner) {
			continue
		}
		var types []dnswire.Type
		for _, t := range r.typesAt(owner) {
			if r.isDelegation(owner) && t != dnswire.TypeNS && t != dnswire.TypeDS {
				continue
			}
			types = append(types, t)
		}
		out[owner] = dnswire.NewTypeBitmap(types...)
	}
	for owner := range r.records {
		if r.isGlue(owner) {
			continue
		}
		for p := owner.Parent(); p != r.apex && p.IsSubdomainOf(r.apex) && !p.IsRoot(); p = p.Parent() {
			if _, ok := out[p]; !ok {
				out[p] = dnswire.NewTypeBitmap()
			}
		}
	}
	return out
}

// storeProbes are the (owner, type) pairs compareStore asks about:
// every owner and every type the zone holds anywhere, crossed, plus an
// owner and a type it holds nowhere.
func storeProbes(r *refStore) ([]dnswire.Name, []dnswire.Type) {
	owners := append(r.names(), r.apex.MustChild("absent-owner"))
	seen := map[dnswire.Type]bool{dnswire.Type(65280): true}
	for _, byType := range r.records {
		for t := range byType {
			seen[t] = true
		}
	}
	types := make([]dnswire.Type, 0, len(seen))
	for t := range seen {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	return owners, types
}

// compareStore requires every reader of z to return what r returns,
// down to nil versus empty.
func compareStore(t *testing.T, what string, z *zone.Zone, r *refStore) {
	t.Helper()
	owners, types := storeProbes(r)
	for _, o := range owners {
		if got, want := z.HasName(o), r.hasName(o); got != want {
			t.Fatalf("%s: HasName(%s) = %v, want %v", what, o, got, want)
		}
		if got, want := z.TypesAt(o), r.typesAt(o); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TypesAt(%s) = %v, want %v", what, o, got, want)
		}
		for _, ty := range types {
			if got, want := z.Lookup(o, ty), r.lookup(o, ty); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Lookup(%s, %s) = %v, want %v", what, o, ty, got, want)
			}
		}
	}
	if got, want := z.Names(), r.names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Names() = %v, want %v", what, got, want)
	}
	if got, want := z.Records(), r.allRecords(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Records() differ:\n got  %v\n want %v", what, got, want)
	}
	if got, want := z.AuthoritativeNames(), r.authoritativeNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: AuthoritativeNames() = %v, want %v", what, got, want)
	}
}

// mergeShuffle returns rrs in a random order that keeps the records of
// each (owner, type) in their order in rrs: every such order builds the
// same zone, RRset by RRset. Seed 0 is rrs's own order.
func mergeShuffle(rrs []dnswire.RR, seed int64) []dnswire.RR {
	out := append([]dnswire.RR(nil), rrs...)
	if seed == 0 {
		return out
	}
	type key struct {
		owner dnswire.Name
		t     dnswire.Type
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	// Put each RRset's records back in their own order over the slots
	// the shuffle gave that RRset.
	queue := make(map[key][]dnswire.RR)
	for _, rr := range rrs {
		k := key{rr.Name, rr.Type()}
		queue[k] = append(queue[k], rr)
	}
	for i, rr := range out {
		k := key{rr.Name, rr.Type()}
		out[i], queue[k] = queue[k][0], queue[k][1:]
	}
	return out
}

// withoutSignatures is a transfer with every RRSIG's signature octets
// dropped: what two signings of one zone with one key pair share.
func withoutSignatures(rrs []dnswire.RR) []dnswire.RR {
	out := make([]dnswire.RR, len(rrs))
	for i, rr := range rrs {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok {
			sig.Signature = nil
			rr.Data = sig
		}
		out[i] = rr
	}
	return out
}

// TestStoreMatchesMapOfMaps: every fixture zone, rebuilt record by
// record in its own order and in two shuffled ones, reads the same
// through every Zone reader as the map-of-maps reference built from the
// same insertions, and the same as the fixture zone itself. Rebuilt
// without what signing publishes and signed again with the fixture's
// keys, it transfers the same AXFR stream, signature octets aside.
func TestStoreMatchesMapOfMaps(t *testing.T) {
	for _, group := range fixtureGroups {
		t.Run(group, func(t *testing.T) {
			for _, s := range fixtureZones(t, group, (*zone.Zone).SignOnDemand) {
				recs := s.Zone.Records()
				apex := s.Zone.Apex
				want := withoutSignatures(s.MustAllRecords(t))
				for seed := int64(0); seed < 3; seed++ {
					order := mergeShuffle(recs, seed)
					z, ref := zone.New(apex, s.Zone.TTL), newRefStore(apex)
					for _, rr := range order {
						z.MustAdd(rr)
						ref.add(rr)
					}
					what := apex.String() + "/" + group
					compareStore(t, what, z, ref)
					if !reflect.DeepEqual(z.Records(), recs) {
						t.Fatalf("%s seed %d: a rebuilt zone's Records() differ from the fixture's", what, seed)
					}
					if group == "statewalk" {
						continue // signed by the testbed, with keys and records of its own
					}
					unsigned := zone.New(apex, s.Zone.TTL)
					for _, rr := range order {
						if rr.Name == apex && (rr.Type() == dnswire.TypeDNSKEY || rr.Type() == dnswire.TypeNSEC3PARAM) {
							continue // published again by the signer below
						}
						unsigned.MustAdd(rr)
					}
					cfg := s.Config
					cfg.KSK, cfg.ZSK = s.KSK, s.ZSK
					again, err := unsigned.SignOnDemand(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := withoutSignatures(again.MustAllRecords(t)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d: AllRecords of the rebuilt zone differ from the fixture's", what, seed)
					}
				}
			}
		})
	}
}

// TestLookupAppendIsolated: appending to what Lookup returned changes
// no lookup — neither that (owner, type) nor any other — whatever the
// store keeps beside the returned records.
func TestLookupAppendIsolated(t *testing.T) {
	z := referenceZone(t)
	apex := z.Apex
	// Owners with several types and several records per type, added
	// interleaved.
	for i, data := range []dnswire.RData{
		dnswire.TXT{Strings: []string{"one"}},
		dnswire.A{Addr: netip.MustParseAddr("192.0.2.10")},
		dnswire.TXT{Strings: []string{"two"}},
		dnswire.AAAA{Addr: netip.MustParseAddr("2001:db8::10")},
		dnswire.A{Addr: netip.MustParseAddr("192.0.2.11")},
		dnswire.MX{Preference: 5, Host: apex.MustChild("mail")},
	} {
		for _, owner := range []dnswire.Name{apex, apex.MustChild("multi")} {
			z.MustAdd(dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: uint32(100 + i), Data: data})
		}
	}
	ref := newRefStore(apex)
	for _, rr := range z.Records() {
		ref.add(rr)
	}
	owners, types := storeProbes(ref)
	snapshot := func() map[[2]string][]dnswire.RR {
		out := make(map[[2]string][]dnswire.RR)
		for _, o := range owners {
			for _, ty := range types {
				out[[2]string{string(o), ty.String()}] = append([]dnswire.RR(nil), z.Lookup(o, ty)...)
			}
		}
		return out
	}
	before := snapshot()
	junk := dnswire.RR{Name: apex.MustChild("junk"), Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.TXT{Strings: []string{"appended by a caller"}}}
	for _, o := range owners {
		for _, ty := range types {
			got := z.Lookup(o, ty)
			for i := 0; i < 4; i++ {
				got = append(got, junk)
			}
			_ = got
			if after := snapshot(); !reflect.DeepEqual(after, before) {
				t.Fatalf("appending to Lookup(%s, %s) changed a lookup", o, ty)
			}
		}
	}
}
