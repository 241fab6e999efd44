package zone_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
	"repro/internal/statewalk"
	"repro/internal/zone"
)

// refProver is the reference the serving path is compared against: it
// answers a query the way Evaluate is specified to, but takes nothing
// from the chain except its sorted records — every name is hashed with
// nsec3.Hash, every record is found by scanning, every NSEC3 RR is
// built from the record's hash and payload, and every RRSIG is looked
// up by owner name. It is slow on purpose and shares no code with the
// chain's own match/cover/proof machinery, so an index, a memo or a
// prebuilt RR that changes one byte of one answer fails
// TestEvaluateMatchesReferenceProver.
type refProver struct {
	t testing.TB
	s *zone.Signed
}

func (r refProver) hash(n dnswire.Name) []byte {
	h, err := nsec3.Hash(n, r.s.Chain().Params)
	if err != nil {
		r.t.Fatalf("hash %s: %v", n, err)
	}
	return h
}

// match returns the index of the record whose owner hash is n's hash.
func (r refProver) match(n dnswire.Name) (int, bool) {
	h := r.hash(n)
	for i, rec := range r.s.Chain().Records {
		if bytes.Equal(rec.OwnerHash, h) {
			return i, true
		}
	}
	return -1, false
}

// cover returns the index of the record whose span covers n's hash;
// there is none when the hash matches a record.
func (r refProver) cover(n dnswire.Name) (int, bool) {
	h := r.hash(n)
	for i, rec := range r.s.Chain().Records {
		if nsec3.Covers(rec.OwnerHash, rec.RR.NextHashedOwner, h) {
			return i, true
		}
	}
	return -1, false
}

// rr builds record i's NSEC3 RR from its raw hash and payload.
func (r refProver) rr(i int) dnswire.RR {
	rec := r.s.Chain().Records[i]
	labels := append([]string{nsec3.EncodeHash(rec.OwnerHash)}, r.s.Zone.Apex.Labels()...)
	owner, err := dnswire.FromLabels(labels...)
	if err != nil {
		r.t.Fatal(err)
	}
	return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: r.s.NegativeTTL(), Data: rec.RR}
}

// appendProof attaches records (by index, -1 = absent) and their
// RRSIGs, skipping NSEC3 owners the authority section already has.
func (r refProver) appendProof(a *zone.Answer, idx ...int) {
	for _, i := range idx {
		if i < 0 {
			continue
		}
		rr := r.rr(i)
		dup := false
		for _, have := range a.Authority {
			if have.Name == rr.Name && have.Type() == dnswire.TypeNSEC3 {
				dup = true
			}
		}
		if dup {
			continue
		}
		a.Authority = append(a.Authority, rr)
		a.Authority = append(a.Authority, r.s.MustRRSIGs(r.t, rr.Name, dnswire.TypeNSEC3)...)
	}
}

// closestEncloser walks up from qname to the first existing name.
func (r refProver) closestEncloser(qname dnswire.Name) (ce, nextCloser dnswire.Name, err error) {
	if r.s.Exists(qname) {
		return "", "", fmt.Errorf("%s exists", qname)
	}
	nextCloser = qname
	for ce = qname.Parent(); !r.s.Exists(ce); ce = ce.Parent() {
		if ce == r.s.Zone.Apex {
			return "", "", fmt.Errorf("apex missing")
		}
		nextCloser = ce
	}
	return ce, nextCloser, nil
}

func (r refProver) evaluate(qname dnswire.Name, qtype dnswire.Type, do bool) (*zone.Answer, error) {
	s := r.s
	if !qname.IsSubdomainOf(s.Zone.Apex) {
		return &zone.Answer{Kind: zone.KindNotInZone, RCode: dnswire.RCodeRefused}, nil
	}
	if cut, ok := s.Zone.DelegationPoint(qname); ok && !(qname == cut && qtype == dnswire.TypeDS) {
		return r.referral(cut, do)
	}
	if s.Exists(qname) {
		return r.answerExisting(qname, qname, qtype, do, false)
	}
	if w, ok := s.Zone.WildcardAt(qname); ok {
		return r.answerExisting(w, qname, qtype, do, true)
	}
	return r.nxdomain(qname, do)
}

func expand(rrs []dnswire.RR, qname dnswire.Name, wildcard bool) []dnswire.RR {
	out := make([]dnswire.RR, len(rrs))
	copy(out, rrs)
	if wildcard {
		for i := range out {
			out[i].Name = qname
		}
	}
	return out
}

func (r refProver) answerExisting(owner, qname dnswire.Name, qtype dnswire.Type, do, wildcard bool) (*zone.Answer, error) {
	s := r.s
	rrs, t, kind := s.Zone.Lookup(owner, qtype), qtype, zone.KindSuccess
	if wildcard {
		kind = zone.KindWildcard
	}
	if len(rrs) == 0 {
		cn := s.Zone.Lookup(owner, dnswire.TypeCNAME)
		if len(cn) == 0 || qtype == dnswire.TypeCNAME {
			return r.nodata(owner, qname, do, wildcard)
		}
		rrs, t, kind = cn, dnswire.TypeCNAME, zone.KindCNAME
	}
	a := &zone.Answer{Kind: kind, RCode: dnswire.RCodeNoError}
	a.Answer = expand(rrs, qname, wildcard)
	if do {
		a.Answer = append(a.Answer, expand(s.MustRRSIGs(r.t, owner, t), qname, wildcard)...)
		if wildcard {
			// RFC 5155 §7.2.6: the NSEC3 covering the next-closer name.
			_, nc, err := r.closestEncloser(qname)
			if err != nil {
				return nil, err
			}
			i, ok := r.cover(nc)
			if !ok {
				return nil, fmt.Errorf("next closer %s matches", nc)
			}
			r.appendProof(a, i)
		}
	}
	return a, nil
}

func (r refProver) appendSOA(a *zone.Answer, do bool) {
	s := r.s
	for _, rr := range s.Zone.Lookup(s.Zone.Apex, dnswire.TypeSOA) {
		rr.TTL = min(rr.TTL, s.NegativeTTL())
		a.Authority = append(a.Authority, rr)
	}
	if do {
		a.Authority = append(a.Authority, s.MustRRSIGs(r.t, s.Zone.Apex, dnswire.TypeSOA)...)
	}
}

func (r refProver) nodata(owner, qname dnswire.Name, do, wildcard bool) (*zone.Answer, error) {
	s := r.s
	a := &zone.Answer{Kind: zone.KindNODATA, RCode: dnswire.RCodeNoError}
	r.appendSOA(a, do)
	if !do {
		return a, nil
	}
	m, ok := r.match(owner)
	if !ok {
		if !s.Config.OptOut || wildcard {
			return nil, fmt.Errorf("no NSEC3 matches %s", owner)
		}
		// RFC 5155 §7.2.4: an insecure delegation left out of an
		// opt-out chain is denied by its closest provable encloser
		// and the opt-out span covering the next-closer name.
		nc := owner
		for cand := owner.Parent(); ; cand = cand.Parent() {
			if ce, ok := r.match(cand); ok {
				cov, ok := r.cover(nc)
				if !ok {
					return nil, fmt.Errorf("next closer %s not covered", nc)
				}
				r.appendProof(a, ce, cov)
				return a, nil
			}
			if cand == s.Zone.Apex || cand.IsRoot() {
				return nil, fmt.Errorf("no provable encloser for %s", owner)
			}
			nc = cand
		}
	}
	r.appendProof(a, m)
	if wildcard {
		if _, nc, err := r.closestEncloser(qname); err == nil {
			if i, ok := r.cover(nc); ok {
				r.appendProof(a, i)
			}
		}
	}
	return a, nil
}

func (r refProver) nxdomain(qname dnswire.Name, do bool) (*zone.Answer, error) {
	a := &zone.Answer{Kind: zone.KindNXDOMAIN, RCode: dnswire.RCodeNXDomain}
	r.appendSOA(a, do)
	if !do {
		return a, nil
	}
	ce, nc, err := r.closestEncloser(qname)
	if err != nil {
		return nil, err
	}
	ceRec, ok := r.match(ce)
	if !ok {
		return nil, fmt.Errorf("no NSEC3 matches closest encloser %s", ce)
	}
	ncRec, ok := r.cover(nc)
	if !ok {
		return nil, fmt.Errorf("next closer %s matches", nc)
	}
	wcRec, _ := r.cover(ce.Wildcard())
	r.appendProof(a, ceRec, ncRec, wcRec)
	return a, nil
}

func (r refProver) referral(cut dnswire.Name, do bool) (*zone.Answer, error) {
	s := r.s
	a := &zone.Answer{Kind: zone.KindDelegation, RCode: dnswire.RCodeNoError}
	nsRRs := s.Zone.Lookup(cut, dnswire.TypeNS)
	a.Authority = append(a.Authority, nsRRs...)
	for _, ns := range nsRRs {
		if host := ns.Data.(dnswire.NS).Host; host.IsSubdomainOf(cut) {
			a.Additional = append(a.Additional, s.Zone.Lookup(host, dnswire.TypeA)...)
			a.Additional = append(a.Additional, s.Zone.Lookup(host, dnswire.TypeAAAA)...)
		}
	}
	if !do {
		return a, nil
	}
	if ds := s.Zone.Lookup(cut, dnswire.TypeDS); len(ds) > 0 {
		a.Authority = append(a.Authority, ds...)
		a.Authority = append(a.Authority, s.MustRRSIGs(r.t, cut, dnswire.TypeDS)...)
		return a, nil
	}
	if i, ok := r.cover(cut); ok && s.Config.OptOut {
		r.appendProof(a, i)
	} else if i, ok := r.match(cut); ok {
		r.appendProof(a, i)
	} else if !s.Config.OptOut {
		return nil, fmt.Errorf("no NSEC3 matches %s", cut)
	}
	return a, nil
}

// probe is one question put to both provers.
type probe struct {
	qname dnswire.Name
	qtype dnswire.Type
	do    bool
}

// probesFor derives the question set from the zone itself: every owner
// (authoritative, glue or empty non-terminal) and names one, two and
// three labels below it — NXDOMAIN below existing names and below
// ENTs, wildcard expansions and wildcard NODATA where a wildcard
// applies, referrals below cuts — each for a present type, absent
// types, DS (the parent-side type at a cut) and CNAME, with and
// without DO.
func probesFor(s *zone.Signed) []probe {
	seen := make(map[dnswire.Name]bool)
	var bases []dnswire.Name
	add := func(n dnswire.Name) {
		if !seen[n] {
			seen[n] = true
			bases = append(bases, n)
		}
	}
	for n := range s.AuthNames() {
		add(n)
	}
	for _, n := range s.Zone.Names() {
		add(n)
	}
	sort.Slice(bases, func(i, j int) bool { return dnswire.CanonicalCompare(bases[i], bases[j]) < 0 })
	var out []probe
	for _, base := range bases {
		q := base
		for depth := 0; depth <= 3; depth++ {
			if depth > 0 {
				var err error
				if q, err = q.Child(fmt.Sprintf("nx%d", depth)); err != nil {
					break // name too long
				}
			}
			for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeCNAME} {
				out = append(out, probe{q, t, true}, probe{q, t, false})
			}
		}
	}
	return out
}

// kindsSeen counts answer kinds (and NSEC3 proof sizes) so the test
// can assert that the zones it was given really exercised every proof
// shape it claims to pin.
type kindsSeen map[string]int

// compareAll evaluates every probe through s.Evaluate and through the
// reference and requires the two *Answer values to be deeply equal.
func compareAll(t *testing.T, s *zone.Signed, seen kindsSeen) {
	t.Helper()
	ref := refProver{t, s}
	for _, p := range probesFor(s) {
		got, gotErr := s.Evaluate(p.qname, p.qtype, p.do)
		want, wantErr := ref.evaluate(p.qname, p.qtype, p.do)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s %s do=%v: Evaluate err = %v, reference err = %v", p.qname, p.qtype, p.do, gotErr, wantErr)
		}
		if gotErr != nil {
			seen["error"]++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s do=%v (%s):\n got  %+v\n want %+v", p.qname, p.qtype, p.do, want.Kind, got, want)
		}
		if !p.do {
			continue
		}
		n3 := 0
		for _, rr := range got.Authority {
			if rr.Type() == dnswire.TypeNSEC3 {
				n3++
			}
		}
		key := got.Kind.String()
		if got.Kind == zone.KindDelegation {
			switch {
			case len(s.Zone.Lookup(got.Authority[0].Name, dnswire.TypeDS)) > 0:
				key += "/secure"
			case s.Config.OptOut:
				key += "/opt-out"
			default:
				key += "/insecure"
			}
		}
		if got.Kind == zone.KindNODATA && p.qtype == dnswire.TypeDS && s.Zone.IsDelegation(p.qname) {
			key += "/ds-at-cut"
			if s.Config.OptOut {
				key += "/opt-out"
			}
		}
		if got.Kind == zone.KindNODATA && !s.Exists(p.qname) {
			key += "/wildcard"
		}
		seen[key]++
		seen[fmt.Sprintf("%s/%d-nsec3", key, n3)]++
	}
}

// referenceZone is the canonical test zone plus a secure delegation
// and a deeper empty-non-terminal chain, so one zone holds every
// denial shape: NXDOMAIN below names and below ENTs, NODATA, wildcard
// answer, wildcard NODATA, DS at a cut, and secure / insecure
// referrals.
func referenceZone(t testing.TB) *zone.Zone {
	z := zone.TestZone(t)
	apex := z.Apex
	z.MustAdd(dnswire.RR{Name: apex.MustChild("secure"), Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NS{Host: apex.MustChild("ns1")}})
	z.MustAdd(dnswire.RR{Name: apex.MustChild("secure"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.DS{KeyTag: 1, Algorithm: dnswire.AlgECDSAP256SHA256,
			DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}})
	z.MustAdd(dnswire.RR{Name: dnswire.MustParseName("leaf.e3.e2.e1.example.com"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.TXT{Strings: []string{"below three empty non-terminals"}}})
	// An insecure delegation reached only through an ENT.
	z.MustAdd(dnswire.RR{Name: dnswire.MustParseName("ins.ent.example.com"), Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NS{Host: apex.MustChild("ns1")}})
	return z
}

// referenceParams is the parameter grid of the issue: iterations
// {0, 1, 150} × {no salt, 8-octet salt}.
func referenceParams() []nsec3.Params {
	var out []nsec3.Params
	for _, it := range []uint16{0, 1, 150} {
		for _, salt := range [][]byte{nil, {1, 2, 3, 4, 5, 6, 7, 8}} {
			out = append(out, nsec3.Params{Iterations: it, Salt: salt})
		}
	}
	return out
}

// signers are the ways a raw zone becomes a signed one; every pin over
// the fixture zones runs once per entry.
var signers = []struct {
	name string
	sign func(*zone.Zone, zone.SignConfig) (*zone.Signed, error)
}{
	{"Sign", (*zone.Zone).Sign},
	{"SignOnDemand", (*zone.Zone).SignOnDemand},
}

// fixtureGroups names the zones fixtureZones builds, in the order the
// tests walk them.
var fixtureGroups = []string{"canonical", "generator", "nsec", "statewalk"}

// fixtureZones is the one place the tests of this package get signed
// zones from: the canonical zone over the parameter grid × opt-out on
// and off; the property test's generator, 12 trials over the same
// grid; NSEC-mode zones (the canonical one valid, fully expired and
// with expired denial signatures, then the generator's); and every
// signed zone of the statewalk world, NSEC3 and NSEC alike, as the
// testbed signed it (sign is not consulted for that group).
func fixtureZones(t testing.TB, group string, sign func(*zone.Zone, zone.SignConfig) (*zone.Signed, error)) []*zone.Signed {
	t.Helper()
	var out []*zone.Signed
	add := func(z *zone.Zone, cfg zone.SignConfig) {
		cfg.Inception, cfg.Expiration = zone.TestInception, zone.TestExpiration
		s, err := sign(z, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	generated := func(trial int) *zone.Zone {
		z, _ := zone.RandomZone(rand.New(rand.NewSource(int64(trial))), trial)
		return z
	}
	switch group {
	case "canonical":
		for _, p := range referenceParams() {
			for _, optOut := range []bool{false, true} {
				add(referenceZone(t), zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: p, OptOut: optOut})
			}
		}
	case "generator":
		for trial := 0; trial < 12; trial++ {
			for pi, p := range referenceParams() {
				add(generated(trial), zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: p, OptOut: (trial+pi)%2 == 0})
			}
		}
	case "nsec":
		add(referenceZone(t), zone.SignConfig{Denial: zone.DenialNSEC})
		add(referenceZone(t), zone.SignConfig{Denial: zone.DenialNSEC, ExpireAll: true})
		add(referenceZone(t), zone.SignConfig{Denial: zone.DenialNSEC, ExpireDenialSigs: true})
		for trial := 0; trial < 13; trial++ {
			add(generated(trial), zone.SignConfig{Denial: zone.DenialNSEC})
		}
	case "statewalk":
		w, err := statewalk.BuildWorld(7)
		if err != nil {
			t.Fatal(err)
		}
		for _, srv := range w.Hierarchy.Servers {
			for _, apex := range srv.Zones() {
				s, err := srv.Materialize(context.Background(), apex)
				if err != nil {
					t.Fatal(err)
				}
				if s.Config.Denial != zone.DenialNone {
					out = append(out, s)
				}
			}
		}
	default:
		t.Fatalf("no fixture group %q", group)
	}
	return out
}

func TestEvaluateMatchesReferenceProver(t *testing.T) {
	seen := kindsSeen{}
	for _, group := range []string{"canonical", "generator", "statewalk"} {
		t.Run(group, func(t *testing.T) {
			for _, sg := range signers {
				zones := 0
				for _, s := range fixtureZones(t, group, sg.sign) {
					if s.Config.Denial != zone.DenialNSEC3 {
						continue // no NSEC3 chain: nothing this reference models
					}
					zones++
					compareAll(t, s, seen)
				}
				want := 12
				if group == "statewalk" {
					want = len(statewalk.Enumerate())
				}
				if zones < want {
					t.Fatalf("%s: compared %d NSEC3 zones, want at least %d", sg.name, zones, want)
				}
				if group == "statewalk" {
					break // signed by the testbed, the same whoever asks
				}
			}
		})
	}
	// Every proof shape the issue names must have been compared.
	for _, k := range []string{
		"NXDOMAIN", "NXDOMAIN/3-nsec3", "NXDOMAIN/2-nsec3",
		"NODATA", "NODATA/wildcard", "WILDCARD", "CNAME",
		"NODATA/ds-at-cut", "NODATA/ds-at-cut/opt-out/2-nsec3", "NODATA/ds-at-cut/opt-out/1-nsec3",
		"DELEGATION/secure", "DELEGATION/insecure", "DELEGATION/opt-out",
	} {
		if seen[k] == 0 {
			t.Errorf("no %s answer was compared (saw %v)", k, seen)
		}
	}
	t.Logf("compared: %v", seen)
	if seen["error"] != 0 {
		t.Errorf("%d probes failed in both provers; the zones should be answerable everywhere", seen["error"])
	}
}

// TestWildcardMemoRace shares one signed zone between goroutines the
// way testbed.SignCache shares it between worlds and asks for
// NXDOMAINs under one closest encloser and under many at once; every
// answer must equal the reference, which was computed beforehand and
// touches nothing the chain may remember. Run under -race.
func TestWildcardMemoRace(t *testing.T) {
	s, err := referenceZone(t).Sign(zone.SignConfig{
		Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 1, Salt: []byte{0xAA}},
		Inception: zone.TestInception, Expiration: zone.TestExpiration,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := refProver{t, s}
	type expect struct {
		q    dnswire.Name
		want *zone.Answer
	}
	var cases []expect
	enclosers := []string{"example.com", "www.example.com", "b.example.com", "a.b.example.com",
		"e1.example.com", "e3.e2.e1.example.com", "mail.example.com", "ent.example.com"}
	for i := 0; i < 16; i++ {
		// Half the names share the apex as closest encloser, half are
		// spread over the others.
		ce := enclosers[0]
		if i%2 == 1 {
			ce = enclosers[1+(i/2)%(len(enclosers)-1)]
		}
		q := dnswire.MustParseName(fmt.Sprintf("race%d.%s", i, ce))
		want, err := ref.evaluate(q, dnswire.TypeA, true)
		if err != nil {
			t.Fatal(err)
		}
		if want.Kind != zone.KindNXDOMAIN {
			t.Fatalf("%s: reference kind %s", q, want.Kind)
		}
		cases = append(cases, expect{q, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range cases {
					c := cases[(i+g*2)%len(cases)]
					got, err := s.Evaluate(c.q, dnswire.TypeA, true)
					if err != nil {
						t.Errorf("%s: %v", c.q, err)
						return
					}
					if !reflect.DeepEqual(got, c.want) {
						t.Errorf("%s: answer differs from the reference:\n got  %+v\n want %+v", c.q, got, c.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
