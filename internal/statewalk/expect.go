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

// limitOutcome is the model's reading of RFC 9276 Items 6/8 plus the
// RFC 5155 §10.3 cap, from a profile's documented limits alone.
type limitOutcome int

const (
	outcomeValidate limitOutcome = iota // within limits: full validation
	outcomeInsecure                     // Item 6 region (or the §10.3 cap)
	outcomeServfail                     // Item 8 region
)

// iterationOutcome classifies an iteration count under a policy.
// limitEDE reports whether a configured limit (not the always-on
// RFC 5155 cap) decided, i.e. whether Item 10 attaches the EDE.
func iterationOutcome(p resolver.Policy, iters int) (limitOutcome, bool) {
	if p.ServfailLimit != resolver.NoLimit && iters > p.ServfailLimit {
		return outcomeServfail, true
	}
	if p.InsecureLimit != resolver.NoLimit && iters > p.InsecureLimit {
		return outcomeInsecure, true
	}
	if iters > nsec3.RFC5155MaxIterations {
		return outcomeInsecure, false
	}
	return outcomeValidate, false
}

// Expect predicts the (RCODE, AD, EDE) triple for one cell from the
// profile's documented limits and validation mode — independently of
// the resolver implementation, so a divergence always means one of the
// two is wrong.
func Expect(t TopologySpec, p resolver.Policy) Triple {
	ede := func(limitEDE bool) dnswire.EDECode {
		if limitEDE && p.EDE != 0 {
			return p.EDE
		}
		return 0
	}
	servfail := func(limitEDE bool) Triple {
		return Triple{RCode: dnswire.RCodeServFail, EDE: ede(limitEDE)}
	}
	// The base response the zone serves, before any validation verdict.
	baseRCode := dnswire.RCodeNoError
	switch t.Shape {
	case ShapeSecureNX, ShapeNSECDenial, ShapeUnsignedDelegation, ShapeOmittedDS,
		ShapeExpiredDenial, ShapeInsecureIsland, ShapeCNAMEChain:
		baseRCode = dnswire.RCodeNXDomain
	}

	// Loops fail for everyone: resolution never reaches an answer, so
	// neither validation mode nor limits matter.
	switch t.Shape {
	case ShapeDelegationLoop, ShapeCNAMELoop:
		return Triple{RCode: dnswire.RCodeServFail}
	}

	if !p.Validate {
		// Non-validating resolvers relay the zone's answer, never set
		// AD, never SERVFAIL on bad DNSSEC data.
		return Triple{RCode: baseRCode}
	}

	outcome, limitEDE := iterationOutcome(p, int(t.Iterations))
	// negAD is the AD bit of a validated negative answer: true unless
	// the profile strips AD from negative responses.
	negAD := !p.NoNegativeAD

	switch t.Shape {
	case ShapeExists:
		// Positive answer, no denial proof: secure for every validator.
		return Triple{RCode: dnswire.RCodeNoError, AD: true}
	case ShapeNSECDenial:
		// Plain NSEC carries no iteration count; NSEC3 limits cannot
		// fire — even strict-zero boxes authenticate this denial.
		return Triple{RCode: dnswire.RCodeNXDomain, AD: negAD}
	case ShapeUnsignedDelegation, ShapeInsecureIsland:
		// Insecure zones answer without AD; nothing to validate.
		return Triple{RCode: dnswire.RCodeNXDomain}
	case ShapeOmittedDS:
		// Authenticated denial of DS makes the zone insecure, and an
		// insecure zone's NSEC3 parameters must never reach the
		// iteration policy — NXDOMAIN at any count, even above a
		// SERVFAIL limit.
		return Triple{RCode: dnswire.RCodeNXDomain}
	case ShapeBrokenDS, ShapeExpiredAll:
		// Verifiably broken chain / expired signatures: bogus, no EDE
		// (the limit did not decide).
		return Triple{RCode: dnswire.RCodeServFail}
	case ShapeSecureNX:
		switch outcome {
		case outcomeServfail:
			return servfail(limitEDE)
		case outcomeInsecure:
			return Triple{RCode: dnswire.RCodeNXDomain, EDE: ede(limitEDE)}
		}
		return Triple{RCode: dnswire.RCodeNXDomain, AD: negAD}
	case ShapeWildcard:
		// Positive RCODE, but the wildcard proof is a denial the
		// policy judges. A validated expansion keeps AD even for
		// negative-AD strippers (the answer is positive).
		switch outcome {
		case outcomeServfail:
			return servfail(limitEDE)
		case outcomeInsecure:
			return Triple{RCode: dnswire.RCodeNoError, EDE: ede(limitEDE)}
		}
		return Triple{RCode: dnswire.RCodeNoError, AD: true}
	case ShapeNodata:
		switch outcome {
		case outcomeServfail:
			return servfail(limitEDE)
		case outcomeInsecure:
			return Triple{RCode: dnswire.RCodeNoError, EDE: ede(limitEDE)}
		}
		return Triple{RCode: dnswire.RCodeNoError, AD: negAD}
	case ShapeExpiredDenial:
		// The NSEC3 RRSIGs are expired. Item 7 compliant validators
		// authenticate the records on every path that trusts them:
		// full validation and the insecure downgrade both discover the
		// expiry and go bogus (no EDE — the limit did not decide).
		// Item 7 violators skip the check in the insecure region and
		// serve the downgrade. Above a SERVFAIL limit the signatures
		// are never consulted, so the limit EDE survives.
		switch outcome {
		case outcomeServfail:
			return servfail(limitEDE)
		case outcomeInsecure:
			if p.VerifyInsecureNSEC3 {
				return Triple{RCode: dnswire.RCodeServFail}
			}
			return Triple{RCode: dnswire.RCodeNXDomain, EDE: ede(limitEDE)}
		}
		return Triple{RCode: dnswire.RCodeServFail}
	case ShapeCNAMEChain:
		// The alias hop is compliant; the policy judges the chase
		// target's denial, and the outcome must survive the chase
		// unchanged — SERVFAIL keeps its EDE, NXDOMAIN stays negative
		// for AD strippers.
		switch outcome {
		case outcomeServfail:
			return servfail(limitEDE)
		case outcomeInsecure:
			return Triple{RCode: dnswire.RCodeNXDomain, EDE: ede(limitEDE)}
		}
		return Triple{RCode: dnswire.RCodeNXDomain, AD: negAD}
	case ShapeOptOutNoDS:
		// NODATA for DS at an Opt-Out-excluded delegation: the proof
		// is a denial the policy judges first; within limits the §8.6
		// Opt-Out proof yields insecure (never AD).
		switch outcome {
		case outcomeServfail:
			return servfail(limitEDE)
		case outcomeInsecure:
			return Triple{RCode: dnswire.RCodeNoError, EDE: ede(limitEDE)}
		}
		return Triple{RCode: dnswire.RCodeNoError}
	}
	// Unreachable for enumerated shapes; fail loudly in the diff if a
	// new shape forgets its model.
	return Triple{RCode: dnswire.RCodeRefused}
}
