// Package scanner is the bulk measurement engine of §4.1 — the role
// zdns played in the paper: a worker pool with token-bucket rate
// limiting that, for each registered domain, queries DNSKEY (DNSSEC
// enablement), NSEC3PARAM and NS, and then a random non-existent
// subdomain to elicit the NSEC3 records from the negative response.
// Results stream out as compliance.ZoneFacts ready for classification,
// or as NDJSON via the Encode helpers (cmd/nsec3scan).
package scanner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"

	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/fanout"
	"repro/internal/mix"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// queryTimeout bounds each query attempt.
const queryTimeout = 5 * time.Second

// maxRetries is how many extra attempts a transport-level query failure
// gets before the domain's scan is abandoned, so ScanErrors in the
// survey report reflects persistent faults, not transient loss.
// retryBackoff is the base delay before the first retry, doubling per
// attempt. Each sleep is jittered: drawn from [base/2, base) as a
// function of (Seed, query name, type, attempt), so workers retrying
// different queries desynchronize and a replay sleeps the same.
// Retries also pay the QPS limiter.
const (
	maxRetries   = 2
	retryBackoff = 50 * time.Millisecond
)

// Config assembles a scanner.
type Config struct {
	// Exchanger is the transport.
	Exchanger netsim.Exchanger
	// Resolver is the recursive resolver all queries go through (the
	// paper used Cloudflare's 1.1.1.1).
	Resolver netip.AddrPort
	// Workers is the concurrency (default 32).
	Workers int
	// QPS caps the aggregate query rate; 0 disables the limiter. The
	// paper limited itself to 14.7 K requests per second on average
	// (Appendix A). The token bucket holds Workers tokens, so every
	// worker can hold one.
	QPS int
	// Seed keys the scanner's draws. Each is a pure function of the
	// seed and its subject — the probe label of the domain, a query's
	// ID and retry jitter of its name, type and attempt — so a scan
	// sends the same queries at any Workers.
	Seed uint64
	// Obs, when set, receives scanner metrics (queries issued, RTT
	// histogram, retries, backoff and limiter wait time). Nil disables
	// instrumentation at zero cost on the query path.
	Obs *obs.Registry
}

// Result is one scanned domain: its facts plus scan metadata.
type Result struct {
	Facts compliance.ZoneFacts
	// Queries is how many DNS queries the scan of this domain used.
	Queries int
	// Err is a transport-level failure (the domain may be retried).
	Err error
}

// Scanner scans domains through a recursive resolver.
type Scanner struct {
	cfg     Config
	limiter *tokenBucket

	// Metrics resolved once in New; all nil (no-op) when cfg.Obs is
	// nil. mRTT and mLimiterWaitNS additionally gate their time.Now
	// reads, so an uninstrumented scanner never touches the clock
	// beyond what the retry timer already needs.
	mQueries       *obs.Counter
	mRTT           *obs.Histogram
	mRetries       *obs.Counter
	mBackoffNS     *obs.Counter
	mLimiterWaitNS *obs.Counter
}

// New creates a scanner. Call Close when done with it to release the
// rate limiter.
func New(cfg Config) *Scanner {
	if cfg.Workers <= 0 {
		cfg.Workers = 32
	}
	s := &Scanner{cfg: cfg}
	if cfg.QPS > 0 {
		s.limiter = newTokenBucket(cfg.QPS, cfg.Workers)
	}
	if cfg.Obs != nil {
		s.mQueries = cfg.Obs.Counter("scanner_queries_total",
			"DNS queries issued by the scanner, including retries")
		s.mRTT = cfg.Obs.Histogram("scanner_query_rtt_seconds",
			"round-trip time of scanner queries", obs.DurationBuckets())
		s.mRetries = cfg.Obs.Counter("scanner_retries_total",
			"scanner query attempts that were retries of a failed attempt")
		s.mBackoffNS = cfg.Obs.Counter("scanner_retry_backoff_nanoseconds_total",
			"cumulative nanoseconds scanner workers slept in retry backoff")
		s.mLimiterWaitNS = cfg.Obs.Counter("scanner_limiter_wait_nanoseconds_total",
			"cumulative nanoseconds scanner workers waited on the QPS limiter")
	}
	return s
}

// Close releases the scanner's rate limiter, waking workers blocked on
// a token; their queries fail with ErrClosed. Safe to call more than
// once, and a no-op for unlimited scanners.
func (s *Scanner) Close() {
	if s.limiter != nil {
		s.limiter.Stop()
	}
}

// The purposes the scanner draws for.
const (
	drawLabel = iota + 1
	drawID
	drawJitter
)

// draw is the scanner's one source of chance: a pure function of its
// seed, the draw's purpose and the query it serves.
func (s *Scanner) draw(purpose uint64, qname dnswire.Name, qtype dnswire.Type, attempt int) uint64 {
	return uint64(mix.New(s.cfg.Seed, purpose).String(string(qname)).Uint64(uint64(qtype)).Uint64(uint64(attempt)))
}

// probeLabel is domain's random-subdomain probe label (cache busting
// plus negative-response elicitation, §4.1): 16 characters of the
// SplitMix64 stream seeded from the domain's draw.
func (s *Scanner) probeLabel(domain dnswire.Name) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := []byte("zz-probe-0123456789abcdef")
	x := s.draw(drawLabel, domain, 0, 0)
	for i := len("zz-probe-"); i < len(b); i++ {
		x = mix.SplitMix64(x)
		b[i] = alphabet[x%uint64(len(alphabet))]
	}
	return string(b)
}

// jitter maps a base backoff to a duration in [d/2, d) — "equal
// jitter" — drawn from the query and attempt it delays.
func (s *Scanner) jitter(d time.Duration, qname dnswire.Name, qtype dnswire.Type, attempt int) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(s.draw(drawJitter, qname, qtype, attempt)%uint64(half))
}

// query sends one recursive query (RD+CD+DO) through the resolver,
// retrying transport-level failures with jittered exponential backoff.
// Every attempt pays the rate limiter, so retries cannot push the
// scanner over its QPS budget.
//
//repro:nondeterministic clock reads drive rate limiting and latency metrics, not scan results
func (s *Scanner) query(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	backoff := retryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if s.limiter != nil {
			if s.mLimiterWaitNS != nil {
				waitStart := time.Now()
				err := s.limiter.wait(ctx)
				s.mLimiterWaitNS.Add(uint64(time.Since(waitStart)))
				if err != nil {
					return nil, err
				}
			} else if err := s.limiter.wait(ctx); err != nil {
				return nil, err
			}
		}
		actx, cancel := context.WithTimeout(ctx, queryTimeout)
		// UDPExchanger dials a socket per exchange, so the ID needs to
		// match its response only, not to be unique.
		q := dnswire.NewQuery(uint16(s.draw(drawID, qname, qtype, attempt)), qname, qtype, true)
		q.Header.CheckingDisabled = true
		s.mQueries.Inc()
		if attempt > 0 {
			s.mRetries.Inc()
		}
		var sent time.Time
		if s.mRTT != nil {
			sent = time.Now()
		}
		msg, err := s.cfg.Exchanger.Exchange(actx, s.cfg.Resolver, q)
		if s.mRTT != nil {
			s.mRTT.Observe(time.Since(sent).Seconds())
		}
		cancel()
		if err == nil {
			return msg, nil
		}
		lastErr = err
		if attempt >= maxRetries || ctx.Err() != nil {
			return nil, lastErr
		}
		sleep := s.jitter(backoff, qname, qtype, attempt)
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
			s.mBackoffNS.Add(uint64(sleep))
		case <-ctx.Done():
			t.Stop()
			return nil, lastErr
		}
		backoff *= 2
	}
}

// ScanDomain runs the §4.1 probe sequence for one registered domain.
func (s *Scanner) ScanDomain(ctx context.Context, domain dnswire.Name) Result {
	res := Result{Facts: compliance.ZoneFacts{Domain: domain}}

	// 1. DNSKEY: the DNSSEC-enablement test.
	msg, err := s.query(ctx, domain, dnswire.TypeDNSKEY)
	if err != nil {
		res.Err = fmt.Errorf("scanner: DNSKEY query: %w", err)
		return res
	}
	res.Queries++
	for _, rr := range msg.Answers {
		if k, ok := rr.Data.(dnswire.DNSKEY); ok {
			res.Facts.DNSKEYs = append(res.Facts.DNSKEYs, k)
		}
	}
	if len(res.Facts.DNSKEYs) == 0 {
		return res // not DNSSEC-enabled: no further queries (§4.1)
	}

	// 2. NSEC3PARAM.
	msg, err = s.query(ctx, domain, dnswire.TypeNSEC3PARAM)
	if err != nil {
		res.Err = fmt.Errorf("scanner: NSEC3PARAM query: %w", err)
		return res
	}
	res.Queries++
	for _, rr := range msg.Answers {
		if p, ok := rr.Data.(dnswire.NSEC3PARAM); ok {
			res.Facts.NSEC3PARAMs = append(res.Facts.NSEC3PARAMs, p)
		}
	}

	// 3. NS (operator attribution).
	msg, err = s.query(ctx, domain, dnswire.TypeNS)
	if err != nil {
		res.Err = fmt.Errorf("scanner: NS query: %w", err)
		return res
	}
	res.Queries++
	for _, rr := range msg.Answers {
		if ns, ok := rr.Data.(dnswire.NS); ok {
			res.Facts.NSHosts = append(res.Facts.NSHosts, ns.Host)
		}
	}

	// 4. Random subdomain: elicit NSEC3 (or NSEC) from the negative
	// response (or from a wildcard expansion's proof).
	probe, err := domain.Child(s.probeLabel(domain))
	if err != nil {
		res.Err = err
		return res
	}
	msg, err = s.query(ctx, probe, dnswire.TypeA)
	if err != nil {
		res.Err = fmt.Errorf("scanner: probe query: %w", err)
		return res
	}
	res.Queries++
	for _, rr := range msg.Authority {
		switch d := rr.Data.(type) {
		case dnswire.NSEC3:
			res.Facts.NSEC3s = append(res.Facts.NSEC3s, d)
		case dnswire.NSEC:
			res.Facts.NSECSeen = true
		}
	}
	return res
}

// Source streams domains into ScanAll. Next returns the next domain
// to scan, or false when the stream is exhausted. ScanAll's workers
// take turns calling Next under one lock, so it is never called
// concurrently (nor again once it has returned false) and
// implementations need no locking.
type Source interface {
	Next() (dnswire.Name, bool)
}

// sliceSource adapts an in-memory domain list.
type sliceSource struct {
	names []dnswire.Name
	i     int
}

func (s *sliceSource) Next() (dnswire.Name, bool) {
	if s.i >= len(s.names) {
		return "", false
	}
	n := s.names[s.i]
	s.i++
	return n, true
}

// Names adapts a slice to a Source.
func Names(names []dnswire.Name) Source {
	return &sliceSource{names: names}
}

// Sink consumes scan results. ScanAll gives each worker its own Sink,
// so an implementation owns its state lock-free unless sinks
// deliberately share (a shared Encoder, say, serializes internally).
type Sink interface {
	Consume(Result)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Result)

// Consume implements Sink.
func (f SinkFunc) Consume(r Result) { f(r) }

// ScanAll scans every domain yielded by src on the configured number
// of workers, the caller's goroutine among them; each worker takes its
// next domain straight from src as it frees up. newSink is called once
// per worker, in order and before scanning starts; each returned sink
// then receives only that worker's results, so per-worker aggregates
// need no mutex — the caller merges them after ScanAll returns. Once
// ctx is done no further domain is taken, in-flight scans drain (their
// results still reach the sinks, with ctx errors attached), and the
// context's error is returned unless src was already exhausted.
func (s *Scanner) ScanAll(ctx context.Context, src Source, newSink func(worker int) Sink) error {
	sinks := make([]Sink, s.cfg.Workers)
	for w := range sinks {
		sinks[w] = newSink(w)
	}
	var (
		mu   sync.Mutex
		done bool
		err  error
	)
	next := func() (dnswire.Name, bool) {
		mu.Lock()
		defer mu.Unlock()
		if done {
			return "", false
		}
		if err = ctx.Err(); err != nil {
			done = true
			return "", false
		}
		d, ok := src.Next()
		done = !ok
		return d, ok
	}
	// The workers never fail, so Each has no error to return.
	_ = fanout.Each(len(sinks), len(sinks), func(w int) error {
		for d, ok := next(); ok; d, ok = next() {
			sinks[w].Consume(s.ScanDomain(ctx, d))
		}
		return nil
	})
	return err
}

// resultJSON is the NDJSON encoding of a Result (zdns-style output).
type resultJSON struct {
	Domain      string   `json:"domain"`
	DNSSEC      bool     `json:"dnssec_enabled"`
	NSEC3Params []string `json:"nsec3param,omitempty"`
	NSEC3Count  int      `json:"nsec3_records,omitempty"`
	NSECSeen    bool     `json:"nsec_seen,omitempty"`
	NSHosts     []string `json:"ns,omitempty"`
	Queries     int      `json:"queries"`
	Error       string   `json:"error,omitempty"`
}

// Encoder writes Results as NDJSON lines, reusing one json.Encoder
// instead of allocating one per result. Write and WriteAny serialize
// internally, so per-worker sinks can share a single Encoder over one
// stream — and so can an obs.Tracer, interleaving span records with
// scan results on the same NDJSON output.
type Encoder struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewEncoder prepares an NDJSON encoder over w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{enc: json.NewEncoder(w)}
}

// WriteAny emits any JSON-encodable value as one line, making Encoder
// an obs.LineWriter (the tracer's output interface).
func (e *Encoder) WriteAny(v any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.enc.Encode(v)
}

// Write emits one result as a JSON line.
func (e *Encoder) Write(r Result) error {
	out := resultJSON{
		Domain:     r.Facts.Domain.String(),
		DNSSEC:     len(r.Facts.DNSKEYs) > 0,
		NSEC3Count: len(r.Facts.NSEC3s),
		NSECSeen:   r.Facts.NSECSeen,
		Queries:    r.Queries,
	}
	for _, p := range r.Facts.NSEC3PARAMs {
		out.NSEC3Params = append(out.NSEC3Params, p.String())
	}
	for _, h := range r.Facts.NSHosts {
		out.NSHosts = append(out.NSHosts, h.String())
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return e.WriteAny(out)
}
