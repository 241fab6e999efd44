package compliance

import (
	"repro/internal/dnswire"
	"repro/internal/testbed"
)

// ResolverClass is the behavioural classification of one resolver from
// its testbed transcript — the per-resolver facts behind Figure 3 and
// the §5.2 statistics.
type ResolverClass struct {
	// IsValidator: NOERROR+AD for valid and SERVFAIL for expired
	// (the paper's validator test).
	IsValidator bool

	// InsecureLimit is the largest iteration count still answered with
	// the AD bit; above it responses turn insecure (Item 6). -1 when
	// the resolver never cleared AD within the probed range.
	InsecureLimit int
	// ImplementsItem6 is true when an AD→no-AD transition was seen.
	ImplementsItem6 bool

	// ServfailFrom is the smallest probed iteration count answered
	// SERVFAIL (Item 8); -1 if none.
	ServfailFrom int
	// ImplementsItem8 is true when a SERVFAIL region exists.
	ImplementsItem8 bool

	// Item7Violation: returns insecure responses above its limit but
	// accepted the it-2501-expired proof (no SERVFAIL) — it did not
	// verify the NSEC3 RRSIGs.
	Item7Violation bool

	// ThreePhase: an NXDOMAIN-without-AD band sits strictly between
	// the authenticated band and the SERVFAIL band (Item 12 violation).
	ThreePhase bool

	// EDESeen lists distinct EDE INFO-CODEs observed.
	EDESeen []dnswire.EDECode
	// EDE27 is true when INFO-CODE 27 accompanied a limit response
	// (Item 10).
	EDE27 bool

	// EchoRA: the resolver left RA clear in responses to RA-clear
	// queries (the broken forwarder signature from §5.2).
	EchoRA bool
}

// SupportsEDE reports whether any EDE was attached.
func (c ResolverClass) SupportsEDE() bool { return len(c.EDESeen) > 0 }

// ClassifyResolver derives the classification from a probe transcript.
func ClassifyResolver(tr *testbed.Transcript) ResolverClass {
	var c ResolverClass
	c.InsecureLimit = -1
	c.ServfailFrom = -1

	valid, _ := tr.Find("valid")
	expired, _ := tr.Find("expired")
	c.IsValidator = valid.Err == nil && expired.Err == nil &&
		valid.RCode == dnswire.RCodeNoError && valid.AD &&
		expired.RCode == dnswire.RCodeServFail

	lastAD := -1
	firstNoAD := -1
	firstServfail := -1
	for _, o := range tr.ItSeries() {
		if o.Err != nil {
			continue
		}
		n := int(o.Iterations)
		switch {
		case o.RCode == dnswire.RCodeServFail:
			if firstServfail == -1 {
				firstServfail = n
			}
		case o.RCode == dnswire.RCodeNXDomain && o.AD:
			lastAD = n
		case o.RCode == dnswire.RCodeNXDomain && !o.AD:
			if firstNoAD == -1 {
				firstNoAD = n
			}
		}
		for _, e := range o.EDE {
			if !containsCode(c.EDESeen, e.Code) {
				c.EDESeen = append(c.EDESeen, e.Code)
			}
			if e.Code == dnswire.EDEUnsupportedNSEC3Iter {
				c.EDE27 = true
			}
		}
		if !o.RA {
			c.EchoRA = true
		}
	}

	// Item 6 requires an observable transition: "there exists a
	// delimiting value N such that subdomains with up to N additional
	// iterations result in NXDOMAIN responses with the AD bit set,
	// while iteration counts above N result in NXDOMAIN only" (§5.2).
	// A validator that never sets AD on any it-N (an AD-stripping
	// forwarder) exhibits no such N and is counted under neither item.
	if firstNoAD != -1 && lastAD != -1 && firstNoAD > lastAD {
		c.ImplementsItem6 = true
		c.InsecureLimit = lastAD
	}

	// Item 8: a SERVFAIL region.
	if firstServfail != -1 {
		c.ImplementsItem8 = true
		c.ServfailFrom = firstServfail
	}

	// Item 12: both implemented with an insecure band in between.
	if c.ImplementsItem6 && c.ImplementsItem8 &&
		firstNoAD != -1 && firstNoAD < firstServfail {
		c.ThreePhase = true
	}

	// Item 7: insecure responders must still reject the expired-RRSIG
	// high-iteration proof.
	if c.ImplementsItem6 {
		if o, ok := tr.Find("it-2501-expired"); ok && o.Err == nil {
			if o.RCode == dnswire.RCodeNXDomain {
				c.Item7Violation = true
			}
		}
	}
	return c
}

func containsCode(codes []dnswire.EDECode, c dnswire.EDECode) bool {
	for _, have := range codes {
		if have == c {
			return true
		}
	}
	return false
}

// ResolverAggregate accumulates classifications into the §5.2 shares.
type ResolverAggregate struct {
	Probed     int
	Validators int

	Item6 int // insecure above some limit
	Item8 int // SERVFAIL above some limit

	// InsecureLimits and ServfailFroms histogram the observed
	// thresholds (e.g. 150 vs 100 vs 50; SERVFAIL from 151 vs 1 vs 101).
	InsecureLimits map[int]int
	ServfailFroms  map[int]int

	Item7Violations int
	ThreePhase      int
	EDEAny          int
	EDE27           int
	EchoRA          int
}

// NewResolverAggregate prepares an empty aggregate.
func NewResolverAggregate() *ResolverAggregate {
	return &ResolverAggregate{
		InsecureLimits: make(map[int]int),
		ServfailFroms:  make(map[int]int),
	}
}

// Add folds one classification in. Only validators contribute to the
// per-item statistics, matching the paper's denominators.
func (a *ResolverAggregate) Add(c ResolverClass) {
	a.Probed++
	if !c.IsValidator {
		return
	}
	a.Validators++
	if c.ImplementsItem6 {
		a.Item6++
		a.InsecureLimits[c.InsecureLimit]++
	}
	if c.ImplementsItem8 {
		a.Item8++
		a.ServfailFroms[c.ServfailFrom]++
	}
	if c.Item7Violation {
		a.Item7Violations++
	}
	if c.ThreePhase {
		a.ThreePhase++
	}
	if c.SupportsEDE() {
		a.EDEAny++
	}
	if c.EDE27 {
		a.EDE27++
	}
	if c.EchoRA {
		a.EchoRA++
	}
}

// Merge folds another aggregate into a. Because every field is a sum
// or a histogram of sums, merging shard aggregates in any order yields
// the same result as classifying the union directly.
func (a *ResolverAggregate) Merge(b *ResolverAggregate) {
	if b == nil {
		return
	}
	a.Probed += b.Probed
	a.Validators += b.Validators
	a.Item6 += b.Item6
	a.Item8 += b.Item8
	for v, n := range b.InsecureLimits {
		a.InsecureLimits[v] += n
	}
	for v, n := range b.ServfailFroms {
		a.ServfailFroms[v] += n
	}
	a.Item7Violations += b.Item7Violations
	a.ThreePhase += b.ThreePhase
	a.EDEAny += b.EDEAny
	a.EDE27 += b.EDE27
	a.EchoRA += b.EchoRA
}
