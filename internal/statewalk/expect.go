package statewalk

import (
	"fmt"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
	"repro/internal/resolver"
)

// Triple is the remotely observable classification of one response —
// the (RCODE, AD bit, EDE code) triple Nosyk et al. probe validators
// with. EDE 0 means no EDE option was attached.
type Triple struct {
	RCode dnswire.RCode
	AD    bool
	EDE   dnswire.EDECode
}

// String renders the triple for divergence messages.
func (t Triple) String() string {
	return fmt.Sprintf("%s/ad=%v/ede=%d", t.RCode, t.AD, uint16(t.EDE))
}

// TripleJSON is the NDJSON rendering of a Triple.
type TripleJSON struct {
	RCode string `json:"rcode"`
	AD    bool   `json:"ad"`
	EDE   uint16 `json:"ede"`
}

// JSON converts for record emission.
func (t Triple) JSON() TripleJSON {
	return TripleJSON{RCode: t.RCode.String(), AD: t.AD, EDE: uint16(t.EDE)}
}

// iterationOutcome is the model's reading of RFC 9276 Items 6/8 plus
// the RFC 5155 §10.3 cap, from a profile's documented limits alone: the
// status the policy forces on an NSEC3 proof at iters — bogus in the
// SERVFAIL region, insecure in the insecure region or above the cap,
// secure when it forces nothing — and the EDE Item 10 attaches when a
// configured limit (not the always-on cap) decided.
func iterationOutcome(p resolver.Policy, iters int) (status, dnswire.EDECode) {
	if p.ServfailLimit != resolver.NoLimit && iters > p.ServfailLimit {
		return bogus, p.EDE
	}
	if p.InsecureLimit != resolver.NoLimit && iters > p.InsecureLimit {
		return insecure, p.EDE
	}
	if iters > nsec3.RFC5155MaxIterations {
		return insecure, 0
	}
	return secure, 0
}

// Expect predicts the (RCODE, AD, EDE) triple for one cell from its
// shape's row and the profile's documented limits and validation mode —
// independently of the resolver implementation, so a divergence always
// means one of the two is wrong.
func Expect(t TopologySpec, p resolver.Policy) Triple {
	s := t.shape
	if s.within == unresolvable {
		// Resolution never reaches an answer, so neither validation
		// mode nor limits matter.
		return Triple{RCode: dnswire.RCodeServFail}
	}
	if !p.Validate {
		// Non-validating resolvers relay the zone's answer, never set
		// AD, never SERVFAIL on bad DNSSEC data.
		return Triple{RCode: s.rcode}
	}
	st, ede := s.within, dnswire.EDECode(0)
	forced, limitEDE := iterationOutcome(p, int(t.Iterations))
	// An Item 7 validator authenticates the proof on the insecure path
	// too, so there a bogus row stays bogus and the limit did not decide.
	item7 := forced == insecure && st == bogus && p.VerifyInsecureNSEC3
	if s.judged && forced != secure && !item7 {
		st, ede = forced, limitEDE
	}
	if st == bogus {
		return Triple{RCode: dnswire.RCodeServFail, EDE: ede}
	}
	return Triple{RCode: s.rcode, AD: st == secure && !(s.negative && p.NoNegativeAD), EDE: ede}
}
