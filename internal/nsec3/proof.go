package nsec3

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/dnswire"
)

// This file implements the two sides of NSEC3 denial of existence:
// synthesis (authoritative server, RFC 5155 §7.2) and verification
// (validating resolver, RFC 5155 §8). Verification is the code path a
// high iteration count makes expensive — every candidate closest
// encloser costs a full iterated hash — which is why RFC 9276 and
// CVE-2023-50868 exist.

// Proof is the set of NSEC3 records an authoritative server attaches to
// a negative or wildcard response. Its pointers alias Chain.Records —
// the same record is the same pointer — and are read-only.
type Proof struct {
	// ClosestEncloser is the NSEC3 matching the closest encloser
	// (NXDOMAIN and wildcard proofs).
	ClosestEncloser *Record
	// NextCloser is the NSEC3 covering the next-closer name.
	NextCloser *Record
	// Wildcard is the NSEC3 covering *.closest-encloser (NXDOMAIN
	// proofs only).
	Wildcard *Record
	// Matching is the NSEC3 matching the query name (NODATA proofs).
	Matching *Record
}

// ClosestEncloser walks qname's ancestors (within zone) from the
// longest down and returns the first that exists, plus the next-closer
// name (qname truncated to one label below the encloser). exists
// reports whether an original name is present in the zone.
func ClosestEncloser(qname, zone dnswire.Name, exists func(dnswire.Name) bool) (ce, nextCloser dnswire.Name, err error) {
	if !qname.IsSubdomainOf(zone) {
		return "", "", fmt.Errorf("nsec3: %s not within zone %s", qname, zone)
	}
	candidate := qname
	prev := qname
	for {
		if exists(candidate) {
			if candidate == qname {
				return "", "", fmt.Errorf("nsec3: %s exists, no encloser proof needed", qname)
			}
			return candidate, prev, nil
		}
		if candidate == zone {
			// The apex always exists in a well-formed zone.
			return "", "", fmt.Errorf("nsec3: zone apex %s missing from name set", zone)
		}
		prev = candidate
		candidate = candidate.Parent()
	}
}

// ProveNXDOMAIN synthesizes the three-record closest-encloser proof for
// a name that does not exist (RFC 5155 §7.2.2). exists must report
// original names present in the zone (including empty non-terminals).
//
// The server's cost is one iterated hash, of the next-closer name: the
// only name of the three that depends on the query, so it is hashed on
// every call and never remembered. The closest encloser is an original
// owner name (the index knows its record) and its wildcard child is a
// function of the zone (the record's slot remembers where it falls).
func (c *Chain) ProveNXDOMAIN(qname dnswire.Name, exists func(dnswire.Name) bool) (Proof, error) {
	ce, nextCloser, err := ClosestEncloser(qname, c.Zone, exists)
	if err != nil {
		return Proof{}, err
	}
	i, match, err := c.locate(ce)
	if err != nil {
		return Proof{}, err
	}
	if !match {
		return Proof{}, fmt.Errorf("nsec3: no NSEC3 matches closest encloser %s", ce)
	}
	p := Proof{ClosestEncloser: &c.Records[i]}
	var ok bool
	if p.NextCloser, ok, err = c.Cover(nextCloser); err != nil {
		return Proof{}, err
	} else if !ok {
		return Proof{}, fmt.Errorf("nsec3: next closer %s unexpectedly matches", nextCloser)
	}
	// If the wildcard matches instead of being covered, the server
	// should have synthesized a wildcard answer, not an NXDOMAIN; the
	// caller handles that branch.
	if w, match, err := c.locateWildcard(i, ce); err != nil {
		return Proof{}, err
	} else if !match {
		p.Wildcard = &c.Records[w]
	}
	return p, nil
}

// ProveNODATA synthesizes the NODATA proof: the NSEC3 matching qname
// whose bitmap shows the queried type absent (RFC 5155 §7.2.3/7.2.4).
// qname exists, so its record comes from the index: no hash.
func (c *Chain) ProveNODATA(qname dnswire.Name) (Proof, error) {
	r, ok, err := c.Match(qname)
	if err != nil {
		return Proof{}, err
	}
	if !ok {
		return Proof{}, fmt.Errorf("nsec3: no NSEC3 matches %s for NODATA", qname)
	}
	return Proof{Matching: r}, nil
}

// ProveWildcard synthesizes the proof accompanying a wildcard-expanded
// answer: the NSEC3 covering the next-closer name, showing qname itself
// does not exist (RFC 5155 §7.2.6).
func (c *Chain) ProveWildcard(qname dnswire.Name, exists func(dnswire.Name) bool) (Proof, error) {
	_, nextCloser, err := ClosestEncloser(qname, c.Zone, exists)
	if err != nil {
		return Proof{}, err
	}
	r, ok, err := c.Cover(nextCloser)
	if err != nil {
		return Proof{}, err
	}
	if !ok {
		return Proof{}, fmt.Errorf("nsec3: next closer %s matches, not covered", nextCloser)
	}
	return Proof{NextCloser: r}, nil
}

// ---------------------------------------------------------------------
// Verification (resolver side)

// Errors from proof verification.
var (
	ErrInconsistentParams = errors.New("nsec3: NSEC3 records carry inconsistent parameters")
	ErrNoClosestEncloser  = errors.New("nsec3: no closest encloser proven")
	ErrNotCovered         = errors.New("nsec3: name not covered by any NSEC3 span")
	ErrWildcardExists     = errors.New("nsec3: wildcard not proven absent")
	ErrNoMatchingRecord   = errors.New("nsec3: no NSEC3 matches the query name")
	ErrTypeExists         = errors.New("nsec3: bitmap proves queried type exists")
)

// ResponseSet is the NSEC3 records extracted from one response's
// authority section, with their shared parameters.
type ResponseSet struct {
	Zone    dnswire.Name
	Params  Params
	Records []Record
}

// ExtractResponseSet collects the NSEC3 RRs from rrs (typically a
// response's authority section), checks RFC 5155 §8.2's requirement
// that all parameters agree, and infers the zone from the owner names.
func ExtractResponseSet(rrs []dnswire.RR) (*ResponseSet, error) {
	var set *ResponseSet
	for _, rr := range rrs {
		n3, ok := rr.Data.(dnswire.NSEC3)
		if !ok {
			continue
		}
		h, err := HashFromOwner(rr.Name)
		if err != nil {
			return nil, err
		}
		p := Params{Alg: n3.HashAlg, Iterations: n3.Iterations, Salt: n3.Salt}
		zone := rr.Name.Parent()
		if set == nil {
			set = &ResponseSet{Zone: zone, Params: p}
		} else if set.Params.Alg != p.Alg || set.Params.Iterations != p.Iterations ||
			!bytes.Equal(set.Params.Salt, p.Salt) || set.Zone != zone {
			return nil, ErrInconsistentParams
		}
		set.Records = append(set.Records, Record{OwnerHash: h, RR: n3})
	}
	if set == nil {
		return nil, errors.New("nsec3: no NSEC3 records in response")
	}
	return set, nil
}

// matches reports whether some record's owner hash equals h.
func (s *ResponseSet) matches(h []byte) (Record, bool) {
	for _, r := range s.Records {
		if bytes.Equal(r.OwnerHash, h) {
			return r, true
		}
	}
	return Record{}, false
}

// covered reports whether some record's span covers h.
func (s *ResponseSet) covered(h []byte) (Record, bool) {
	for _, r := range s.Records {
		if Covers(r.OwnerHash, r.RR.NextHashedOwner, h) {
			return r, true
		}
	}
	return Record{}, false
}

// VerifyNXDOMAIN validates a closest-encloser NXDOMAIN proof for qname
// (RFC 5155 §8.4–8.5). It returns the proven closest encloser and the
// covering next-closer record (whose Opt-Out bit weakens the proof for
// delegations). The cost of this function grows linearly with the
// iteration count — one iterated hash per candidate ancestor — which is
// the resolver-side exposure the paper measures.
func (s *ResponseSet) VerifyNXDOMAIN(qname dnswire.Name) (ce dnswire.Name, nextCloserRec Record, err error) {
	ce, nextCloser, err := s.findClosestEncloser(qname)
	if err != nil {
		return "", Record{}, err
	}
	ncHash, err := Hash(nextCloser, s.Params)
	if err != nil {
		return "", Record{}, err
	}
	nc, ok := s.covered(ncHash)
	if !ok {
		return "", Record{}, fmt.Errorf("%w: next closer %s", ErrNotCovered, nextCloser)
	}
	wcHash, err := Hash(ce.Wildcard(), s.Params)
	if err != nil {
		return "", Record{}, err
	}
	if _, ok := s.covered(wcHash); !ok {
		return "", Record{}, fmt.Errorf("%w: *.%s", ErrWildcardExists, ce)
	}
	return ce, nc, nil
}

// VerifyNODATA validates a NODATA proof: an NSEC3 matching qname whose
// bitmap lacks qtype and CNAME (RFC 5155 §8.5).
func (s *ResponseSet) VerifyNODATA(qname dnswire.Name, qtype dnswire.Type) error {
	h, err := Hash(qname, s.Params)
	if err != nil {
		return err
	}
	r, ok := s.matches(h)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoMatchingRecord, qname)
	}
	if r.RR.Types.Contains(qtype) || r.RR.Types.Contains(dnswire.TypeCNAME) {
		return fmt.Errorf("%w: %s %s", ErrTypeExists, qname, qtype)
	}
	return nil
}

// VerifyWildcardAnswer validates the proof accompanying a wildcard
// expansion: qname's next closer (at wildcardLabels+1 labels) must be
// covered, proving the exact name absent (RFC 5155 §8.8). The RRSIG
// Labels field supplies wildcardLabels.
func (s *ResponseSet) VerifyWildcardAnswer(qname dnswire.Name, wildcardLabels int) error {
	labels := qname.Labels()
	if wildcardLabels >= len(labels) {
		return fmt.Errorf("nsec3: wildcard label count %d not below qname %s", wildcardLabels, qname)
	}
	nextCloser, err := nameFromSuffix(labels, wildcardLabels+1)
	if err != nil {
		return err
	}
	h, err := Hash(nextCloser, s.Params)
	if err != nil {
		return err
	}
	if _, ok := s.covered(h); !ok {
		return fmt.Errorf("%w: next closer %s", ErrNotCovered, nextCloser)
	}
	return nil
}

// VerifyNoDS validates the denial of a DS RRset at an insecure
// delegation under an Opt-Out zone (RFC 5155 §8.6): the closest
// provable encloser is matched and the next-closer name is covered by
// a span with the Opt-Out flag. It returns the covering record so the
// caller can inspect the flag; without Opt-Out the proof is invalid
// for a name that should have matched directly.
func (s *ResponseSet) VerifyNoDS(qname dnswire.Name) (Record, error) {
	ce, nextCloser, err := s.findClosestEncloser(qname)
	if err != nil {
		return Record{}, err
	}
	_ = ce
	h, err := Hash(nextCloser, s.Params)
	if err != nil {
		return Record{}, err
	}
	rec, ok := s.covered(h)
	if !ok {
		return Record{}, fmt.Errorf("%w: next closer %s", ErrNotCovered, nextCloser)
	}
	if !rec.RR.OptOut() {
		return Record{}, fmt.Errorf("nsec3: covering span without opt-out cannot deny DS at %s", qname)
	}
	return rec, nil
}

// findClosestEncloser implements RFC 5155 §8.3: the longest ancestor of
// qname with a matching NSEC3 whose immediate child on qname's path is
// covered.
func (s *ResponseSet) findClosestEncloser(qname dnswire.Name) (ce, nextCloser dnswire.Name, err error) {
	labels := qname.Labels()
	// Candidate enclosers from longest (qname's parent) to the zone.
	for drop := 1; drop <= len(labels); drop++ {
		candidate, err := nameFromSuffix(labels, len(labels)-drop)
		if err != nil {
			return "", "", err
		}
		if !candidate.IsSubdomainOf(s.Zone) {
			break
		}
		h, err := Hash(candidate, s.Params)
		if err != nil {
			return "", "", err
		}
		if _, ok := s.matches(h); ok {
			nc, err := nameFromSuffix(labels, len(labels)-drop+1)
			if err != nil {
				return "", "", err
			}
			return candidate, nc, nil
		}
	}
	return "", "", ErrNoClosestEncloser
}

// nameFromSuffix builds the name made of the last n labels.
func nameFromSuffix(labels []string, n int) (dnswire.Name, error) {
	return dnswire.FromLabels(labels[len(labels)-n:]...)
}
