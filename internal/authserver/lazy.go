package authserver

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/zone"
)

// SignFunc produces the signed zone for a lazily-registered apex. It
// runs at most once per apex (on the first query that reaches the
// zone, or on an explicit Materialize) and must be safe to call from
// any goroutine; the server serializes it through the zone's
// singleflight.
type SignFunc func() (*zone.Signed, error)

// hostedZone is one entry of the server's apex table. done is the
// entry's singleflight: sz/err are written before close(done) and only
// read after <-done, which orders the accesses. A zone installed by
// AddZone is born with done closed; one registered by AddLazyZone
// carries the thunk that the first caller takes (under Server.mu) and
// runs, so concurrent first queries for the same apex block on one
// signer while other apexes sign in parallel.
type hostedZone struct {
	lazy bool // registered by AddLazyZone (what LazyStats counts)
	sign SignFunc
	done chan struct{}
	sz   *zone.Signed
	err  error
}

// AddLazyZone registers an apex whose signed zone is produced by sign
// on first demand, replacing any zone with the same apex. Until then
// the server routes queries for the apex exactly as if the zone were
// installed, paying the signing cost only when traffic actually arrives
// — a hierarchy's peak memory stays O(zones touched) instead of
// O(zones hosted).
func (s *Server) AddLazyZone(apex dnswire.Name, sign SignFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[apex] = &hostedZone{lazy: true, sign: sign, done: make(chan struct{})}
	s.invalidateMemo()
}

// Instrument attaches observability: a histogram of nanoseconds
// queries spend blocked on lazy signing (signer and waiters both
// observe), a counter of zones signed lazily, and counters of queries
// answered and of what the answer memo did with them. Call it before
// serving; the fields are read concurrently afterwards. Metrics are
// registered by name, so every server of a hierarchy shares them.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mSignWait = reg.Histogram("authserver_sign_wait_ns",
		"nanoseconds a query spent blocked on a lazy zone's build and denial chain", obs.NanosecondBuckets())
	s.mLazySigned = reg.Counter("authserver_zones_signed_lazily_total",
		"zones materialized by their first query instead of at deploy time")
	s.mQueries = reg.Counter("authserver_queries_total",
		"queries answered, by Handle or from the answer memo")
	s.mMemoHits = reg.Counter("authserver_answer_memo_hits_total",
		"queries answered with a stored rendering of Handle's response to the same octets")
	s.mMemoAdmitted = reg.Counter("authserver_answer_memo_admitted_total",
		"renderings stored on the second sight of their query")
	s.mMemoFlushes = reg.Counter("authserver_answer_memo_flushes_total",
		"times a server's answer memo was emptied: full, or a zone or transfer policy changed")
}

// Materialize forces lazy signing of the hosted zone with the given
// apex (idempotent; a plain lookup for zones installed signed). AXFR
// setup and tests use it to pre-sign a zone without synthesizing a
// query. ctx bounds the wait on a signer already in flight; the signing
// work itself is never abandoned (the memoized result must exist for
// later queries).
func (s *Server) Materialize(ctx context.Context, apex dnswire.Name) (*zone.Signed, error) {
	s.mu.RLock()
	hz := s.zones[apex]
	s.mu.RUnlock()
	if hz == nil {
		return nil, fmt.Errorf("authserver: no zone %s", apex)
	}
	return s.signed(ctx, hz)
}

// LazyStats reports how many lazily-registered zones have been
// materialized and how many are still pending (registered but never
// queried, or failed to sign). It is derived from the table, so
// re-registering an apex cannot make it drift.
func (s *Server) LazyStats() (materialized, pending int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, hz := range s.zones {
		if !hz.lazy {
			continue
		}
		select {
		case <-hz.done:
			if hz.err == nil {
				materialized++
				continue
			}
		default:
		}
		pending++
	}
	return materialized, pending
}

// signed returns the entry's signed zone: the memoized result once the
// entry's signing has finished (always, for AddZone), the singleflight
// otherwise.
func (s *Server) signed(ctx context.Context, hz *hostedZone) (*zone.Signed, error) {
	select {
	case <-hz.done:
		return hz.sz, hz.err
	default:
		return s.materialize(ctx, hz)
	}
}

// materialize runs the zone's singleflight: the first caller signs,
// concurrent callers block until the signer finishes, later callers
// return the memoized result (including a memoized error — a zone that
// failed to sign keeps answering ServFail rather than retrying).
//
//repro:nondeterministic sign-wait timing is telemetry (authserver_sign_wait_ns), never response content
func (s *Server) materialize(ctx context.Context, hz *hostedZone) (*zone.Signed, error) {
	if s.mSignWait != nil {
		// Signer, waiter and cancelled waiter alike: the time spent in
		// here is sign-wait the caller experienced.
		start := time.Now()
		defer func() { s.mSignWait.Observe(float64(time.Since(start).Nanoseconds())) }()
	}
	// Whoever takes the thunk is the signer; dropping it from the entry
	// releases the records it captured once it has run.
	s.mu.Lock()
	sign := hz.sign
	hz.sign = nil
	s.mu.Unlock()
	if sign != nil {
		// Signing runs to completion even if ctx is cancelled mid-way:
		// waiters and later queries depend on the memoized result.
		hz.sz, hz.err = sign()
		if hz.err == nil {
			s.mLazySigned.Inc()
		}
		close(hz.done)
	} else {
		select {
		case <-hz.done:
		case <-ctx.Done():
			// The wait — not the signing — is cancelled.
			return nil, ctx.Err()
		}
	}
	return hz.sz, hz.err
}
