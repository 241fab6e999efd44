package zone

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// DenialMode selects the authenticated denial of existence mechanism.
type DenialMode int

// Denial modes.
const (
	DenialNSEC  DenialMode = iota // plain NSEC (RFC 4034) — walkable
	DenialNSEC3                   // hashed NSEC3 (RFC 5155)
	DenialNone                    // unsigned zone: no DNSSEC at all
)

// String returns the mode name.
func (m DenialMode) String() string {
	switch m {
	case DenialNSEC3:
		return "NSEC3"
	case DenialNone:
		return "NONE"
	}
	return "NSEC"
}

// SignConfig controls zone signing.
type SignConfig struct {
	// Algorithm selects the DNSSEC algorithm for both keys.
	Algorithm dnswire.SecAlgorithm
	// Denial selects NSEC or NSEC3.
	Denial DenialMode
	// NSEC3 carries the hash parameters when Denial is DenialNSEC3.
	// These are the knobs the paper measures: additional iterations
	// (RFC 9276 Item 2 requires 0) and salt (Item 3 recommends none).
	NSEC3 nsec3.Params
	// OptOut sets the NSEC3 Opt-Out flag and omits insecure
	// delegations from the chain (RFC 5155 §6; RFC 9276 Items 4–5).
	OptOut bool
	// Inception and Expiration are the RRSIG window (Unix seconds).
	Inception, Expiration uint32
	// ExpireAll signs every RRset with an already-expired window (the
	// paper's "expired" testbed subdomain).
	ExpireAll bool
	// ExpireDenialSigs signs only the NSEC3/NSEC RRsets with an
	// expired window (the "it-2501-expired" subdomain, probing
	// RFC 9276 Item 7).
	ExpireDenialSigs bool
	// KSK and ZSK, when nil, are generated with Rand.
	KSK, ZSK *dnssec.KeyPair
	// Rand seeds key generation; nil means crypto/rand.
	Rand io.Reader
}

// Signed is a fully signed zone ready to be served.
type Signed struct {
	Zone   *Zone
	Config SignConfig
	KSK    *dnssec.KeyPair
	ZSK    *dnssec.KeyPair

	// names is the authoritative name set with post-signing bitmaps.
	names map[dnswire.Name]dnswire.TypeBitmap
	// rrsigs maps owner -> covered type -> RRSIG records, for every
	// RRset but the NSEC3 chain's.
	rrsigs map[dnswire.Name]map[dnswire.Type][]dnswire.RR
	// chain is the NSEC3 chain (DenialNSEC3 only).
	chain *nsec3.Chain
	// nsec3Sigs[i] is the RRSIG over chain.Records[i]: one array beside
	// the records, found by index, where a map entry per NSEC3 owner
	// would cost more memory than the signature it holds.
	nsec3Sigs []dnswire.RR
	// nsecOrder is the canonical owner order (DenialNSEC only).
	nsecOrder []dnswire.Name
	// nsecRRs maps owner -> its NSEC record (DenialNSEC only).
	nsecRRs map[dnswire.Name]dnswire.RR
	// negTTL is the negative-answer TTL from the SOA minimum.
	negTTL uint32
}

// ErrNoSOA is returned when signing a zone without an apex SOA.
var ErrNoSOA = errors.New("zone: apex SOA required before signing")

// Sign signs the zone. The zone must contain an apex SOA and NS.
func (z *Zone) Sign(cfg SignConfig) (*Signed, error) {
	soa, ok := z.SOA()
	if !ok {
		return nil, ErrNoSOA
	}
	if cfg.Algorithm == 0 {
		cfg.Algorithm = dnswire.AlgECDSAP256SHA256
	}
	if cfg.NSEC3.Alg == 0 {
		cfg.NSEC3.Alg = dnswire.NSEC3HashSHA1
	}
	s := &Signed{
		Zone:   z,
		Config: cfg,
		KSK:    cfg.KSK,
		ZSK:    cfg.ZSK,
		rrsigs: make(map[dnswire.Name]map[dnswire.Type][]dnswire.RR),
		negTTL: soa.Minimum,
	}
	if cfg.Denial == DenialNone {
		// Unsigned serving: no keys, no signatures, no denial chain.
		s.names = z.AuthoritativeNames()
		return s, nil
	}
	var err error
	if s.KSK == nil {
		if s.KSK, err = dnssec.GenerateKey(cfg.Algorithm, true, cfg.Rand); err != nil {
			return nil, err
		}
	}
	if s.ZSK == nil {
		if s.ZSK, err = dnssec.GenerateKey(cfg.Algorithm, false, cfg.Rand); err != nil {
			return nil, err
		}
	}

	// Publish DNSKEYs and NSEC3PARAM at the apex before computing
	// bitmaps, so the denial chain reflects the signed zone.
	z.MustAdd(s.KSK.DNSKEYRR(z.Apex, z.TTL))
	z.MustAdd(s.ZSK.DNSKEYRR(z.Apex, z.TTL))
	if cfg.Denial == DenialNSEC3 {
		z.MustAdd(dnswire.RR{Name: z.Apex, Class: dnswire.ClassIN, TTL: 0, Data: dnswire.NSEC3PARAM{
			HashAlg:    cfg.NSEC3.Alg,
			Iterations: cfg.NSEC3.Iterations,
			Salt:       append([]byte(nil), cfg.NSEC3.Salt...),
		}})
	}

	s.names = z.AuthoritativeNames()
	s.addDenialTypesToBitmaps()

	if err := s.signRRsets(); err != nil {
		return nil, err
	}
	if cfg.Denial == DenialNSEC3 {
		err = s.buildNSEC3()
	} else {
		err = s.buildNSEC()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// window returns the RRSIG validity window, honoring ExpireAll.
func (s *Signed) window(denial bool) (uint32, uint32) {
	inc, exp := s.Config.Inception, s.Config.Expiration
	if s.Config.ExpireAll || (denial && s.Config.ExpireDenialSigs) {
		// A window entirely in the past relative to the configured one.
		return inc - 200000, inc - 100000
	}
	return inc, exp
}

// addDenialTypesToBitmaps extends each name's bitmap with RRSIG (for
// names owning signed RRsets) and NSEC in NSEC mode.
func (s *Signed) addDenialTypesToBitmaps() {
	for name, bitmap := range s.names {
		types := append([]dnswire.Type(nil), bitmap...)
		signedTypes := s.signableTypes(name, bitmap)
		if len(signedTypes) > 0 {
			types = append(types, dnswire.TypeRRSIG)
		}
		if s.Config.Denial == DenialNSEC {
			types = append(types, dnswire.TypeNSEC, dnswire.TypeRRSIG)
		}
		s.names[name] = dnswire.NewTypeBitmap(types...)
	}
}

// signableTypes returns the types at name whose RRsets get RRSIGs:
// everything authoritative except delegation NS (and except nothing at
// ENTs, which own no data).
func (s *Signed) signableTypes(name dnswire.Name, bitmap dnswire.TypeBitmap) []dnswire.Type {
	var out []dnswire.Type
	for _, t := range bitmap {
		if t == dnswire.TypeRRSIG || t == dnswire.TypeNSEC {
			continue
		}
		if s.Zone.IsDelegation(name) && t == dnswire.TypeNS {
			continue // delegation NS is not signed (RFC 4035 §2.2)
		}
		out = append(out, t)
	}
	return out
}

// signRRsets produces RRSIGs for every signable RRset. The DNSKEY
// RRset is signed by the KSK; everything else by the ZSK.
func (s *Signed) signRRsets() error {
	for name, bitmap := range s.names {
		for _, t := range s.signableTypes(name, bitmap) {
			rrs := s.Zone.Lookup(name, t)
			if len(rrs) == 0 {
				continue
			}
			key := s.ZSK
			if t == dnswire.TypeDNSKEY {
				key = s.KSK
			}
			inc, exp := s.window(false)
			sigRR, err := dnssec.SignRR(rrs, key, s.Zone.Apex, inc, exp)
			if err != nil {
				return fmt.Errorf("zone: signing %s/%s: %w", name, t, err)
			}
			s.addRRSIG(name, t, sigRR)
		}
	}
	return nil
}

func (s *Signed) addRRSIG(name dnswire.Name, covered dnswire.Type, sig dnswire.RR) {
	byType, ok := s.rrsigs[name]
	if !ok {
		byType = make(map[dnswire.Type][]dnswire.RR)
		s.rrsigs[name] = byType
	}
	byType[covered] = append(byType[covered], sig)
}

// RRSIGsFor returns the RRSIG records covering (name, type).
func (s *Signed) RRSIGsFor(name dnswire.Name, covered dnswire.Type) []dnswire.RR {
	if covered == dnswire.TypeNSEC3 && s.chain != nil {
		rec, ok := s.chain.ByOwner(name)
		if !ok {
			return nil
		}
		return s.nsec3Sigs[rec.Index : rec.Index+1 : rec.Index+1]
	}
	return s.rrsigs[name][covered]
}

// buildNSEC3 constructs and signs the NSEC3 chain.
func (s *Signed) buildNSEC3() error {
	chainNames := make(map[dnswire.Name]dnswire.TypeBitmap, len(s.names))
	for name, bitmap := range s.names {
		if s.Config.OptOut && s.isInsecureDelegation(name) {
			continue // opt-out: insecure delegations own no NSEC3
		}
		chainNames[name] = bitmap
	}
	chain, err := nsec3.BuildChain(s.Zone.Apex, s.Config.NSEC3, chainNames, s.Config.OptOut, s.negTTL)
	if err != nil {
		return err
	}
	s.chain = chain
	// Sign every NSEC3 RR.
	s.nsec3Sigs = make([]dnswire.RR, len(chain.Records))
	inc, exp := s.window(true)
	for i := range chain.Records {
		s.nsec3Sigs[i], err = dnssec.SignRR([]dnswire.RR{chain.Records[i].Full}, s.ZSK, s.Zone.Apex, inc, exp)
		if err != nil {
			return err
		}
	}
	return nil
}

// isInsecureDelegation reports whether name is a delegation without DS.
func (s *Signed) isInsecureDelegation(name dnswire.Name) bool {
	return s.Zone.IsDelegation(name) && len(s.Zone.Lookup(name, dnswire.TypeDS)) == 0
}

// buildNSEC constructs and signs the plain NSEC chain.
func (s *Signed) buildNSEC() error {
	order := make([]dnswire.Name, 0, len(s.names))
	for n := range s.names {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool {
		return dnswire.CanonicalCompare(order[i], order[j]) < 0
	})
	s.nsecOrder = order
	s.nsecRRs = make(map[dnswire.Name]dnswire.RR, len(order))
	inc, exp := s.window(true)
	for i, owner := range order {
		next := order[(i+1)%len(order)]
		rr := dnswire.RR{
			Name: owner, Class: dnswire.ClassIN, TTL: s.negTTL,
			Data: dnswire.NSEC{NextName: next, Types: s.names[owner]},
		}
		s.nsecRRs[owner] = rr
		sig, err := dnssec.SignRR([]dnswire.RR{rr}, s.ZSK, s.Zone.Apex, inc, exp)
		if err != nil {
			return err
		}
		s.addRRSIG(owner, dnswire.TypeNSEC, sig)
	}
	return nil
}

// Chain exposes the NSEC3 chain (nil in NSEC mode).
func (s *Signed) Chain() *nsec3.Chain { return s.chain }

// NSECRecord returns the NSEC RR at owner (NSEC mode only).
func (s *Signed) NSECRecord(owner dnswire.Name) (dnswire.RR, bool) {
	rr, ok := s.nsecRRs[owner]
	return rr, ok
}

// nsecCovering returns the NSEC record whose span covers qname.
func (s *Signed) nsecCovering(qname dnswire.Name) (dnswire.RR, bool) {
	n := len(s.nsecOrder)
	if n == 0 {
		return dnswire.RR{}, false
	}
	i := sort.Search(n, func(i int) bool {
		return dnswire.CanonicalCompare(s.nsecOrder[i], qname) > 0
	})
	// Predecessor owns the covering span; wrap to the last record.
	owner := s.nsecOrder[(i-1+n)%n]
	if owner == qname {
		return dnswire.RR{}, false
	}
	return s.nsecRRs[owner], true
}

// DSForChild computes the DS RRset a parent publishes for this signed
// zone's KSK (used to chain the simulated hierarchy together).
func (s *Signed) DSForChild() (dnswire.DS, error) {
	if s.KSK == nil {
		return dnswire.DS{}, errors.New("zone: unsigned zone has no KSK")
	}
	return dnssec.NewDS(s.Zone.Apex, s.KSK.DNSKEY(), dnswire.DigestSHA256)
}

// Exists reports whether an original name exists in the signed zone
// (including empty non-terminals).
func (s *Signed) Exists(name dnswire.Name) bool {
	_, ok := s.names[name]
	return ok
}

// AuthNames exposes the signed zone's authoritative name set.
func (s *Signed) AuthNames() map[dnswire.Name]dnswire.TypeBitmap { return s.names }

// NegativeTTL returns the negative-caching TTL (SOA minimum).
func (s *Signed) NegativeTTL() uint32 { return s.negTTL }
