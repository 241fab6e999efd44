package zone

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	// KSK and ZSK, when nil, are generated.
	KSK, ZSK *dnssec.KeyPair
}

// Signed is a signed zone ready to be served. Its keys, bitmaps and
// denial chain exist from the start; each RRSIG is made by the first
// reader that needs it (see sigCell) — all of them at once by SignAll,
// which is how Sign hands out a zone whose every signature exists.
type Signed struct {
	Zone   *Zone
	Config SignConfig
	KSK    *dnssec.KeyPair
	ZSK    *dnssec.KeyPair

	// names is the authoritative name set with post-signing bitmaps.
	names map[dnswire.Name]dnswire.TypeBitmap
	// hasCuts and hasWildcards say whether any owner the zone held when
	// it was signed is a delegation point or a wildcard; where none is,
	// an answer walks no label looking for one.
	hasCuts, hasWildcards bool
	// rrsigs holds the RRSIG over every signable RRset and, in NSEC
	// mode, over every NSEC record — everything but the NSEC3 chain's.
	rrsigs map[sigKey]*sigCell
	// chain is the NSEC3 chain (DenialNSEC3 only).
	chain *nsec3.Chain
	// nsec3Sigs[i] is the RRSIG over chain.Records[i]: one array beside
	// the records, found by index, where a map entry per NSEC3 owner
	// would cost more memory than the signature it holds.
	nsec3Sigs []sigCell
	// made counts the cells filled so far (SigStats).
	made atomic.Int64
	// nsecOrder is the canonical owner order (DenialNSEC only).
	nsecOrder []dnswire.Name
	// nsecRRs maps owner -> its NSEC record (DenialNSEC only).
	nsecRRs map[dnswire.Name]dnswire.RR
	// negTTL is the negative-answer TTL from the SOA minimum.
	negTTL uint32
}

// sigKey names the RRset a signature covers.
type sigKey struct {
	owner   dnswire.Name
	covered dnswire.Type
}

// sigCell is one RRSIG, made at most once. It holds the result and
// nothing it is made from: the RRset, the key and the validity window
// all follow from what the signature covers (see fill). A failure is
// kept like a signature, so a cell that could not be signed fails the
// same way for every reader. Cells contain a lock: they are reached by
// pointer or index, never copied.
type sigCell struct {
	once sync.Once
	sig  [1]dnswire.RR
	err  error
}

// ErrNoSOA is returned when signing a zone without an apex SOA.
var ErrNoSOA = errors.New("zone: apex SOA required before signing")

// Sign signs the zone: every RRSIG exists when it returns. The zone
// must contain an apex SOA and NS.
func (z *Zone) Sign(cfg SignConfig) (*Signed, error) {
	s, err := z.SignOnDemand(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.SignAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// SignOnDemand prepares the zone for signed serving — keys, DNSKEY and
// NSEC3PARAM publication, bitmaps, the denial chain — and leaves each
// RRSIG to the first answer (or SignAll, or AllRecords) that carries
// it, the way an online signer does. Only the apex DNSKEY RRset, which
// every validator fetches, is signed here, so a key that cannot sign
// is reported now rather than by the first query.
func (z *Zone) SignOnDemand(cfg SignConfig) (*Signed, error) {
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
		negTTL: soa.Minimum,
	}
	if cfg.Denial == DenialNone {
		// Unsigned serving: no keys, no signatures, no denial chain.
		s.names, s.hasCuts, s.hasWildcards = z.authoritativeNames()
		return s, nil
	}
	var err error
	if s.KSK == nil {
		if s.KSK, err = dnssec.GenerateKey(cfg.Algorithm, true, nil); err != nil {
			return nil, err
		}
	}
	if s.ZSK == nil {
		if s.ZSK, err = dnssec.GenerateKey(cfg.Algorithm, false, nil); err != nil {
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

	s.names, s.hasCuts, s.hasWildcards = z.authoritativeNames()
	s.addDenialTypesToBitmaps()

	s.rrsigs = make(map[sigKey]*sigCell, len(s.names))
	for name, bitmap := range s.names {
		for _, t := range s.signableTypes(name, bitmap) {
			if len(z.Lookup(name, t)) > 0 {
				s.rrsigs[sigKey{name, t}] = new(sigCell)
			}
		}
	}
	if cfg.Denial != DenialNSEC3 {
		s.buildNSEC()
	} else if err := s.buildNSEC3(); err != nil {
		return nil, err
	}
	if _, err := s.RRSIGsFor(z.Apex, dnswire.TypeDNSKEY); err != nil {
		return nil, err
	}
	return s, nil
}

// fill returns the cell's RRSIG, making it if this is the first time
// anything asked. What is signed, with which key and for which window
// is decided here from what the signature covers: the NSEC3 record rec
// when the cell is the chain's, the owner's NSEC record for NSEC, the
// zone's RRset otherwise; the KSK for the DNSKEY RRset and the ZSK for
// the rest; the denial window for NSEC3 and NSEC.
func (s *Signed) fill(c *sigCell, k sigKey, rec *nsec3.Record) ([]dnswire.RR, error) {
	c.once.Do(func() {
		var rrs []dnswire.RR
		key, denial := s.ZSK, true
		switch {
		case rec != nil:
			rrs = []dnswire.RR{rec.Full}
		case k.covered == dnswire.TypeNSEC:
			rrs = []dnswire.RR{s.nsecRRs[k.owner]}
		default:
			rrs, denial = s.Zone.Lookup(k.owner, k.covered), false
			if k.covered == dnswire.TypeDNSKEY {
				key = s.KSK
			}
		}
		inc, exp := s.window(denial)
		if c.sig[0], c.err = dnssec.SignRR(rrs, key, s.Zone.Apex, inc, exp); c.err != nil {
			c.err = fmt.Errorf("zone: signing %s/%s: %w", k.owner, k.covered, c.err)
			return
		}
		s.made.Add(1)
	})
	if c.err != nil {
		return nil, c.err
	}
	return c.sig[:], nil
}

// fillNSEC3 is fill for the signature over a record of the chain.
func (s *Signed) fillNSEC3(rec *nsec3.Record) ([]dnswire.RR, error) {
	return s.fill(&s.nsec3Sigs[rec.Index], sigKey{rec.Full.Name, dnswire.TypeNSEC3}, rec)
}

// RRSIGsFor returns the RRSIG covering (name, type), signing it if
// nothing has yet; no records and no error where the zone signs no such
// RRset.
func (s *Signed) RRSIGsFor(name dnswire.Name, covered dnswire.Type) ([]dnswire.RR, error) {
	if covered == dnswire.TypeNSEC3 && s.chain != nil {
		if rec, ok := s.chain.ByOwner(name); ok {
			return s.fillNSEC3(rec)
		}
		return nil, nil
	}
	k := sigKey{name, covered}
	if c, ok := s.rrsigs[k]; ok {
		return s.fill(c, k, nil)
	}
	return nil, nil
}

// SignAll makes every signature that does not exist yet and reports
// the first that cannot be made.
func (s *Signed) SignAll() error {
	for k, c := range s.rrsigs {
		if _, err := s.fill(c, k, nil); err != nil {
			return err
		}
	}
	for i := range s.nsec3Sigs {
		if _, err := s.fillNSEC3(&s.chain.Records[i]); err != nil {
			return err
		}
	}
	return nil
}

// SigStats reports how many of the zone's signatures have been made so
// far and how many it has in all.
func (s *Signed) SigStats() (made, total int) {
	return int(s.made.Load()), len(s.rrsigs) + len(s.nsec3Sigs)
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

// buildNSEC3 constructs the NSEC3 chain and a signature cell per record.
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
	s.nsec3Sigs = make([]sigCell, len(chain.Records))
	return nil
}

// isInsecureDelegation reports whether name is a delegation without DS.
func (s *Signed) isInsecureDelegation(name dnswire.Name) bool {
	return s.Zone.IsDelegation(name) && len(s.Zone.Lookup(name, dnswire.TypeDS)) == 0
}

// buildNSEC constructs the plain NSEC chain and a signature cell per
// record.
func (s *Signed) buildNSEC() {
	order := make([]dnswire.Name, 0, len(s.names))
	for n := range s.names {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool {
		return dnswire.CanonicalCompare(order[i], order[j]) < 0
	})
	s.nsecOrder = order
	s.nsecRRs = make(map[dnswire.Name]dnswire.RR, len(order))
	for i, owner := range order {
		next := order[(i+1)%len(order)]
		rr := dnswire.RR{
			Name: owner, Class: dnswire.ClassIN, TTL: s.negTTL,
			Data: dnswire.NSEC{NextName: next, Types: s.names[owner]},
		}
		s.nsecRRs[owner] = rr
		s.rrsigs[sigKey{owner, dnswire.TypeNSEC}] = new(sigCell)
	}
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
