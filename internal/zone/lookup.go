package zone

import (
	"fmt"
	"slices"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// AnswerKind classifies the outcome of a query against a signed zone.
type AnswerKind int

// Answer kinds.
const (
	KindSuccess    AnswerKind = iota // data exists at qname/qtype
	KindWildcard                     // data synthesized from a wildcard
	KindNODATA                       // name exists, type does not
	KindNXDOMAIN                     // name does not exist
	KindDelegation                   // referral to a child zone
	KindCNAME                        // alias present at qname
	KindNotInZone                    // qname outside this zone
)

// String returns the kind name.
func (k AnswerKind) String() string {
	switch k {
	case KindSuccess:
		return "SUCCESS"
	case KindWildcard:
		return "WILDCARD"
	case KindNODATA:
		return "NODATA"
	case KindNXDOMAIN:
		return "NXDOMAIN"
	case KindDelegation:
		return "DELEGATION"
	case KindCNAME:
		return "CNAME"
	}
	return "NOTINZONE"
}

// Answer is the evaluated response content for one query.
type Answer struct {
	Kind       AnswerKind
	RCode      dnswire.RCode
	Answer     []dnswire.RR
	Authority  []dnswire.RR
	Additional []dnswire.RR
}

// Evaluate answers (qname, qtype) against the signed zone, following
// RFC 1034 §4.3.2 adapted for DNSSEC (RFC 4035 §3.1) and NSEC3
// (RFC 5155 §7.2). When do is false, DNSSEC records (RRSIG, NSEC,
// NSEC3) are omitted, as for a query without the DO bit. An RRSIG the
// answer carries is made here if no earlier answer carried it; when
// that fails the error is returned and the answer is not to be served.
// It is EvaluateInto a new Answer.
func (s *Signed) Evaluate(qname dnswire.Name, qtype dnswire.Type, do bool) (*Answer, error) {
	a := new(Answer)
	if err := s.EvaluateInto(a, qname, qtype, do); err != nil {
		return nil, err
	}
	return a, nil
}

// EvaluateInto is Evaluate into an Answer the caller owns: a is
// overwritten, its three sections refilled from their start within the
// capacity they have, so a caller that reuses one Answer pays for the
// sections once and for nothing per query — every record appended is
// the zone's own, resolved when it was signed. After an error a holds
// nothing to serve.
func (s *Signed) EvaluateInto(a *Answer, qname dnswire.Name, qtype dnswire.Type, do bool) error {
	*a = Answer{Answer: a.Answer[:0], Authority: a.Authority[:0], Additional: a.Additional[:0]}
	if !qname.IsSubdomainOf(s.Zone.Apex) {
		a.Kind, a.RCode = KindNotInZone, dnswire.RCodeRefused
		return nil
	}

	// Delegation handling: a query at or below a zone cut is referred,
	// except a DS query exactly at the cut, which the parent answers. A
	// zone without a cut has no label to walk for one.
	if s.hasCuts {
		if cut, ok := s.Zone.DelegationPoint(qname); ok {
			if !(qname == cut && qtype == dnswire.TypeDS) {
				return s.referral(a, cut, do)
			}
		}
	}

	if s.Exists(qname) {
		return s.answerExisting(a, qname, qname, qtype, do, false)
	}

	// Wildcard synthesis (RFC 4592), in a zone that owns a wildcard.
	if s.hasWildcards {
		if w, ok := s.Zone.WildcardAt(qname); ok {
			return s.answerExisting(a, w, qname, qtype, do, true)
		}
	}

	return s.nxdomain(a, qname, do)
}

// answerExisting answers from records at owner; when wildcard is true,
// owner is the "*" node and qname the synthesized name.
func (s *Signed) answerExisting(a *Answer, owner, qname dnswire.Name, qtype dnswire.Type, do, wildcard bool) error {
	rrs, kind := s.Zone.Lookup(owner, qtype), KindSuccess
	if wildcard {
		kind = KindWildcard
	}
	if len(rrs) == 0 {
		// CNAME redirection applies for any type but CNAME itself.
		if rrs = s.Zone.Lookup(owner, dnswire.TypeCNAME); len(rrs) == 0 || qtype == dnswire.TypeCNAME {
			return s.nodata(a, owner, qname, do, wildcard)
		}
		qtype, kind = dnswire.TypeCNAME, KindCNAME
	}
	a.Kind, a.RCode = kind, dnswire.RCodeNoError
	a.Answer = expand(a.Answer, rrs, qname, wildcard)
	if do {
		sigs, err := s.RRSIGsFor(owner, qtype)
		if err != nil {
			return err
		}
		a.Answer = expand(a.Answer, sigs, qname, wildcard)
		if wildcard {
			return s.appendWildcardProof(a, qname)
		}
	}
	return nil
}

// expand appends rrs to dst, the owner name of wildcard records
// rewritten to the query name.
func expand(dst, rrs []dnswire.RR, qname dnswire.Name, wildcard bool) []dnswire.RR {
	first := len(dst)
	dst = append(dst, rrs...)
	if wildcard {
		for i := first; i < len(dst); i++ {
			dst[i].Name = qname
		}
	}
	return dst
}

// appendWildcardProof attaches the denial record proving qname itself
// does not exist, which legitimizes the wildcard expansion.
func (s *Signed) appendWildcardProof(a *Answer, qname dnswire.Name) error {
	switch s.Config.Denial {
	case DenialNSEC3:
		proof, err := s.chain.ProveWildcard(qname, s.Exists)
		if err != nil {
			return err
		}
		return s.appendNSEC3Proof(a, proof.NextCloser)
	default:
		if rr, ok := s.nsecCovering(qname); ok {
			return s.appendNSEC(a, rr)
		}
	}
	return nil
}

// nodata builds a NOERROR/empty-answer response with its proof.
func (s *Signed) nodata(a *Answer, owner, qname dnswire.Name, do, wildcard bool) error {
	a.Kind, a.RCode = KindNODATA, dnswire.RCodeNoError
	err := s.appendSOA(a, do)
	if err != nil || !do {
		return err
	}
	switch s.Config.Denial {
	case DenialNSEC3:
		proof, err := s.chain.ProveNODATA(owner)
		if err != nil {
			if s.Config.OptOut && !wildcard {
				// Opt-out zones own no NSEC3 for insecure delegations:
				// deny DS with the closest-provable-encloser proof of
				// RFC 5155 §7.2.4 instead.
				if p2, err2 := s.proveOptOutNoDS(owner); err2 == nil {
					return s.appendNSEC3Proof(a, p2.ClosestEncloser, p2.NextCloser)
				}
			}
			return fmt.Errorf("zone: NODATA proof for %s: %w", owner, err)
		}
		if wildcard {
			// Wildcard NODATA (RFC 5155 §7.2.5): the NSEC3 matching the
			// wildcard, then the one covering the next-closer name.
			if p2, err := s.chain.ProveWildcard(qname, s.Exists); err == nil {
				proof.NextCloser = p2.NextCloser
			}
		}
		return s.appendNSEC3Proof(a, proof.Matching, proof.NextCloser)
	default:
		if rr, ok := s.NSECRecord(owner); ok {
			return s.appendNSEC(a, rr)
		}
	}
	return nil
}

// proveOptOutNoDS synthesizes the RFC 5155 §7.2.4 proof for an
// insecure delegation excluded from an opt-out chain: the NSEC3
// matching the closest provable encloser plus the opt-out span
// covering the next-closer name.
func (s *Signed) proveOptOutNoDS(owner dnswire.Name) (nsec3.Proof, error) {
	nextCloser := owner
	for cand := owner.Parent(); ; cand = cand.Parent() {
		if rec, ok, err := s.chain.Match(cand); err == nil && ok {
			if cov, ok, err := s.chain.Cover(nextCloser); err == nil && ok {
				return nsec3.Proof{ClosestEncloser: rec, NextCloser: cov}, nil
			}
			return nsec3.Proof{}, fmt.Errorf("zone: next closer %s not covered", nextCloser)
		}
		if cand == s.Zone.Apex || cand.IsRoot() {
			return nsec3.Proof{}, fmt.Errorf("zone: no provable encloser for %s", owner)
		}
		nextCloser = cand
	}
}

// nxdomain builds the NXDOMAIN response with the closest-encloser proof.
func (s *Signed) nxdomain(a *Answer, qname dnswire.Name, do bool) error {
	a.Kind, a.RCode = KindNXDOMAIN, dnswire.RCodeNXDomain
	err := s.appendSOA(a, do)
	if err != nil || !do {
		return err
	}
	switch s.Config.Denial {
	case DenialNSEC3:
		proof, err := s.chain.ProveNXDOMAIN(qname, s.Exists)
		if err != nil {
			return fmt.Errorf("zone: NXDOMAIN proof for %s: %w", qname, err)
		}
		return s.appendNSEC3Proof(a, proof.ClosestEncloser, proof.NextCloser, proof.Wildcard)
	default:
		covering, ok := s.nsecCovering(qname)
		if ok {
			if err := s.appendNSEC(a, covering); err != nil {
				return err
			}
		}
		// Prove the wildcard absent too (RFC 4035 §3.1.3.2), unless
		// the same NSEC just did.
		ce := qname.Parent()
		for !s.Exists(ce) && ce != s.Zone.Apex {
			ce = ce.Parent()
		}
		if rr, wok := s.nsecCovering(ce.Wildcard()); wok && !(ok && rr.Name == covering.Name) {
			return s.appendNSEC(a, rr)
		}
	}
	return nil
}

// referral builds a delegation response for the zone cut.
func (s *Signed) referral(a *Answer, cut dnswire.Name, do bool) error {
	a.Kind, a.RCode = KindDelegation, dnswire.RCodeNoError
	nsRRs := s.Zone.Lookup(cut, dnswire.TypeNS)
	a.Authority = append(a.Authority, nsRRs...)
	// Glue below the cut.
	for _, ns := range nsRRs {
		host := ns.Data.(dnswire.NS).Host
		if host.IsSubdomainOf(cut) {
			a.Additional = append(a.Additional, s.Zone.Lookup(host, dnswire.TypeA)...)
			a.Additional = append(a.Additional, s.Zone.Lookup(host, dnswire.TypeAAAA)...)
		}
	}
	if !do {
		return nil
	}
	if ds := s.Zone.Lookup(cut, dnswire.TypeDS); len(ds) > 0 {
		sigs, err := s.RRSIGsFor(cut, dnswire.TypeDS)
		a.Authority = append(append(a.Authority, ds...), sigs...)
		return err
	}
	// Insecure delegation: prove DS absence.
	switch s.Config.Denial {
	case DenialNSEC3:
		if s.Config.OptOut {
			// The cut owns no NSEC3; the covering record with Opt-Out
			// set proves the span may contain unsigned delegations
			// (RFC 5155 §7.2.4).
			if rec, ok, err := s.chain.Cover(cut); err == nil && ok {
				return s.appendNSEC3Proof(a, rec)
			} else if rec, ok, err := s.chain.Match(cut); err == nil && ok {
				return s.appendNSEC3Proof(a, rec)
			}
		} else {
			proof, err := s.chain.ProveNODATA(cut)
			if err != nil {
				return err
			}
			return s.appendNSEC3Proof(a, proof.Matching)
		}
	default:
		if rr, ok := s.NSECRecord(cut); ok {
			return s.appendNSEC(a, rr)
		}
	}
	return nil
}

// appendSOA attaches the apex SOA (and its RRSIG when do) to the
// authority section, as negative answers require (RFC 2308 §3).
func (s *Signed) appendSOA(a *Answer, do bool) error {
	soaRRs := s.Zone.Lookup(s.Zone.Apex, dnswire.TypeSOA)
	if a.Authority == nil && do {
		// The largest negative answer — SOA, three NSEC3, an RRSIG
		// each — in one allocation, not four doublings.
		a.Authority = make([]dnswire.RR, 0, 8)
	}
	for _, rr := range soaRRs {
		rr.TTL = min(rr.TTL, s.negTTL)
		a.Authority = append(a.Authority, rr)
	}
	if !do {
		return nil
	}
	sigs, err := s.RRSIGsFor(s.Zone.Apex, dnswire.TypeSOA)
	a.Authority = append(a.Authority, sigs...)
	return err
}

// appendNSEC attaches an NSEC record and its RRSIG to the authority
// section.
func (s *Signed) appendNSEC(a *Answer, rr dnswire.RR) error {
	sigs, err := s.RRSIGsFor(rr.Name, dnswire.TypeNSEC)
	a.Authority = append(append(a.Authority, rr), sigs...)
	return err
}

// appendNSEC3Proof attaches the proof's records, in the order given,
// each followed by its RRSIG, to the authority section. No record is
// built: the RR was resolved when the chain was, and its RRSIG — made
// the first time a proof needs it — sits at the same index. A proof's
// records alias the chain's, so a record that plays two roles (or none:
// nil) is recognized by its pointer.
func (s *Signed) appendNSEC3Proof(a *Answer, recs ...*nsec3.Record) error {
	for i, rec := range recs {
		if rec == nil || slices.Contains(recs[:i], rec) {
			continue
		}
		sigs, err := s.fillNSEC3(rec)
		if err != nil {
			return err
		}
		a.Authority = append(append(a.Authority, rec.Full), sigs...)
	}
	return nil
}
