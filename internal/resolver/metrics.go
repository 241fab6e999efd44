package resolver

import (
	"repro/internal/dnswire"
	"repro/internal/obs"
)

// metrics holds the resolver's observability hooks. All fields are nil
// (and every method on them a no-op) when Config.Obs is unset, so the
// resolution path pays nothing for instrumentation it doesn't use.
type metrics struct {
	// upstream counts queries the resolver sent to authoritative
	// servers, including the small transport retry.
	upstream *obs.Counter
	// cutHits counts walks that started below the root, at a cached
	// zone cut.
	cutHits *obs.Counter
	// hashWork accumulates the Gruza et al. cost model: every NSEC3
	// denial the resolver verifies costs iterated SHA-1 applications
	// proportional to (1 + iterations) per hashed candidate name.
	hashWork *obs.Counter
}

// newMetrics resolves the resolver's metrics from reg (nil reg: all
// no-op).
func newMetrics(reg *obs.Registry) metrics {
	if reg == nil {
		return metrics{}
	}
	return metrics{
		upstream: reg.Counter("resolver_upstream_queries_total",
			"queries sent by the resolver to authoritative servers"),
		cutHits: reg.Counter("resolver_delegation_cache_hits_total",
			"delegation walks that started at a cached zone cut instead of the roots"),
		hashWork: reg.Counter("resolver_nsec3_hash_work_total",
			"SHA-1 applications spent verifying NSEC3 denials (Gruza et al. cost model)"),
	}
}

// nsec3HashWork estimates the SHA-1 applications needed to verify one
// NSEC3 denial for qname in the zone rooted at apex. The verifier runs
// the closest-encloser search: each candidate ancestor between the
// apex and qname may be hashed, plus the next-closer name and the
// source-of-synthesis wildcard, and every hash iterates 1+iterations
// times (RFC 5155 §5; the cost model of Gruza et al. / §6 of the
// paper). The estimate is deliberately an upper bound on candidates —
// it tracks how iteration settings multiply resolver work, which is
// the quantity the survey compares across parameter choices.
func nsec3HashWork(qname, apex dnswire.Name, iterations int) uint64 {
	candidates := qname.CountLabels() - apex.CountLabels()
	if candidates < 1 {
		candidates = 1
	}
	// + next closer + wildcard.
	return uint64(candidates+2) * uint64(1+iterations)
}

// countNSEC3Work records the hash work of one verified denial.
func (r *Resolver) countNSEC3Work(qname, apex dnswire.Name, iterations int) {
	r.met.hashWork.Add(nsec3HashWork(qname, apex, iterations))
}
