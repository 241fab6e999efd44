package scanner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/testbed"
	"repro/internal/zone"
)

// scanWorld builds a tiny universe, deploys it, installs a recursive
// resolver at 1.1.1.1, and returns (network, resolver addr, universe).
func scanWorld(t testing.TB, n int) (*netsim.Network, *population.Universe) {
	t.Helper()
	u, err := population.Generate(population.Config{Registered: n, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(9)
	dep, err := population.Deploy(u, net, 1709251200, 1717200000)
	if err != nil {
		t.Fatal(err)
	}
	res := resolver.New(resolver.Config{
		Roots:           dep.Hierarchy.Roots,
		TrustAnchor:     dep.Hierarchy.TrustAnchor,
		Exchanger:       net,
		Policy:          respop.Cloudflare.Policy,
		Now:             func() uint32 { return 1712000000 },
		MaxCacheEntries: 1 << 16,
	})
	net.Register(netsim.Addr4(1, 1, 1, 1), res)
	return net, u
}

func newScanner(net *netsim.Network, qps int) *Scanner {
	return New(Config{
		Exchanger: net,
		Resolver:  netsim.Addr4(1, 1, 1, 1),
		Workers:   8,
		QPS:       qps,
		Seed:      7,
	})
}

func TestScanDomainClassifications(t *testing.T) {
	net, u := scanWorld(t, 400)
	sc := newScanner(net, 0)
	// Find one NSEC3, one NSEC-signed, and one unsigned domain.
	var nsec3Spec, nsecSpec, unsignedSpec *population.DomainSpec
	for i := range u.Domains {
		d := &u.Domains[i]
		switch {
		case d.NSEC3 && nsec3Spec == nil:
			nsec3Spec = d
		case d.DNSSEC && !d.NSEC3 && nsecSpec == nil:
			nsecSpec = d
		case !d.DNSSEC && unsignedSpec == nil:
			unsignedSpec = d
		}
	}
	if nsec3Spec == nil || nsecSpec == nil || unsignedSpec == nil {
		t.Fatal("universe too small to cover all classes")
	}

	r := sc.ScanDomain(context.Background(), nsec3Spec.Name)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	c := compliance.Classify(r.Facts)
	if !c.NSEC3Enabled {
		t.Fatalf("NSEC3 domain not detected: %+v", r.Facts)
	}
	if c.Iterations != nsec3Spec.Iterations || c.SaltLen != nsec3Spec.SaltLen {
		t.Fatalf("params %d/%d, spec %d/%d", c.Iterations, c.SaltLen,
			nsec3Spec.Iterations, nsec3Spec.SaltLen)
	}
	if len(r.Facts.NSHosts) == 0 {
		t.Fatal("no NS hosts scanned")
	}
	if r.Queries != 4 {
		t.Fatalf("NSEC3 domain used %d queries, want 4", r.Queries)
	}

	r = sc.ScanDomain(context.Background(), nsecSpec.Name)
	c = compliance.Classify(r.Facts)
	if !c.DNSSECEnabled || c.NSEC3Enabled || !r.Facts.NSECSeen {
		t.Fatalf("NSEC domain misclassified: %+v", c)
	}

	r = sc.ScanDomain(context.Background(), unsignedSpec.Name)
	c = compliance.Classify(r.Facts)
	if c.DNSSECEnabled {
		t.Fatalf("unsigned domain classified as DNSSEC: %+v", r.Facts)
	}
	if r.Queries != 1 {
		t.Fatalf("unsigned domain used %d queries, want 1 (early exit)", r.Queries)
	}
}

// countingSink is one worker's private result store — no mutex needed,
// the point of the per-worker sink API.
type countingSink struct {
	results []Result
}

func (c *countingSink) Consume(r Result) { c.results = append(c.results, r) }

func TestScanAllPerWorkerSinks(t *testing.T) {
	net, u := scanWorld(t, 300)
	sc := newScanner(net, 0)
	defer sc.Close()
	names := make([]dnswire.Name, 0, 100)
	for i := range u.Domains[:100] {
		names = append(names, u.Domains[i].Name)
	}
	var sinks []*countingSink
	err := sc.ScanAll(context.Background(), Names(names), func(worker int) Sink {
		if worker != len(sinks) {
			t.Errorf("sink factory called with worker %d, want %d", worker, len(sinks))
		}
		s := &countingSink{}
		sinks = append(sinks, s)
		return s
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sinks) != 8 {
		t.Fatalf("%d sinks created, want one per worker", len(sinks))
	}
	total := 0
	seen := map[dnswire.Name]bool{}
	for _, s := range sinks {
		for _, r := range s.results {
			if r.Err != nil {
				t.Fatalf("scan error for %s: %v", r.Facts.Domain, r.Err)
			}
			if seen[r.Facts.Domain] {
				t.Fatalf("domain %s scanned twice", r.Facts.Domain)
			}
			seen[r.Facts.Domain] = true
			total++
		}
	}
	if total != 100 {
		t.Fatalf("emitted %d results across sinks", total)
	}
}

func TestScanAllHonorsContext(t *testing.T) {
	net, u := scanWorld(t, 300)
	sc := New(Config{
		Exchanger: net, Resolver: netsim.Addr4(1, 1, 1, 1),
		Workers: 8, QPS: 1, Seed: 7, // 1 qps: outlives the context
	})
	defer sc.Close()
	names := make([]dnswire.Name, 0, 50)
	for i := range u.Domains[:50] {
		names = append(names, u.Domains[i].Name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := sc.ScanAll(ctx, Names(names), func(int) Sink { return SinkFunc(func(Result) {}) })
	if err == nil {
		t.Fatal("cancelled scan returned nil error")
	}
}

// TestScanAllMidScanCancellation cancels from inside a sink — the
// shape of a consumer aborting a shard mid-stream. The feed must stop,
// in-flight work must drain, and the context error must surface.
func TestScanAllMidScanCancellation(t *testing.T) {
	net, u := scanWorld(t, 300)
	sc := newScanner(net, 0)
	defer sc.Close()
	names := make([]dnswire.Name, 0, 200)
	for i := range u.Domains[:200] {
		names = append(names, u.Domains[i].Name)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	consumed := 0
	err := sc.ScanAll(ctx, Names(names), func(int) Sink {
		return SinkFunc(func(Result) {
			mu.Lock()
			consumed++
			if consumed == 5 {
				cancel()
			}
			mu.Unlock()
		})
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if consumed < 5 || consumed == 200 {
		t.Fatalf("consumed %d results, want partial drain", consumed)
	}
}

// flakyExchanger fails a fixed prefix of every query's attempts: calls
// succeed only on every (failures+1)-th global attempt. With a single
// worker the per-query attempt pattern is deterministic.
type flakyExchanger struct {
	inner    netsim.Exchanger
	failures int
	calls    int
	fails    int
}

func (f *flakyExchanger) Exchange(ctx context.Context, srv netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	f.calls++
	if f.calls%(f.failures+1) != 0 {
		f.fails++
		return nil, errors.New("flaky transport")
	}
	return f.inner.Exchange(ctx, srv, q)
}

func TestRetryBackoffRecoversTransientFailures(t *testing.T) {
	net, u := scanWorld(t, 300)
	flaky := &flakyExchanger{inner: net, failures: 2}
	sc := New(Config{
		Exchanger: flaky, Resolver: netsim.Addr4(1, 1, 1, 1),
		Workers: 1, Seed: 7,
	})
	defer sc.Close()
	var spec *population.DomainSpec
	for i := range u.Domains {
		if u.Domains[i].NSEC3 {
			spec = &u.Domains[i]
			break
		}
	}
	r := sc.ScanDomain(context.Background(), spec.Name)
	if r.Err != nil {
		t.Fatalf("retries did not mask transient loss: %v", r.Err)
	}
	if !compliance.Classify(r.Facts).NSEC3Enabled {
		t.Fatal("retried scan misclassified")
	}
	if flaky.fails == 0 {
		t.Fatal("flaky transport never failed — test is vacuous")
	}
}

func TestRetryGivesUpAfterBudget(t *testing.T) {
	alwaysDown := &flakyExchanger{inner: nil, failures: 1 << 30}
	sc := New(Config{
		Exchanger: alwaysDown, Resolver: netsim.Addr4(1, 1, 1, 1),
		Workers: 1, Seed: 7,
	})
	defer sc.Close()
	r := sc.ScanDomain(context.Background(), dnswire.MustParseName("down.example"))
	if r.Err == nil {
		t.Fatal("scan of a dead transport succeeded")
	}
	// The first probe (DNSKEY) is the only query: 1 try + maxRetries.
	if alwaysDown.calls != 1+maxRetries {
		t.Fatalf("%d transport calls, want %d (1 try + %d retries)", alwaysDown.calls, 1+maxRetries, maxRetries)
	}
}

func TestTokenBucketBurstAndRefill(t *testing.T) {
	b := newTokenBucket(100, 5)
	start := time.Unix(1712000000, 0)
	for i := 0; i < 5; i++ {
		if d := b.reserve(start); d != 0 {
			t.Fatalf("burst token %d delayed by %v", i, d)
		}
	}
	// Bucket dry: the next reservation waits one token period (10ms).
	if d := b.reserve(start); d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("dry-bucket delay %v, want ~10ms", d)
	}
	// After a second of idling the bucket refills to its burst cap —
	// not to one token per elapsed tick.
	later := start.Add(time.Second)
	for i := 0; i < 5; i++ {
		if d := b.reserve(later); d > 0 {
			t.Fatalf("refilled token %d delayed by %v", i, d)
		}
	}
	if d := b.reserve(later); d <= 0 {
		t.Fatal("bucket exceeded burst capacity after refill")
	}
}

func TestTokenBucketStopWakesWaiters(t *testing.T) {
	b := newTokenBucket(1, 1)
	if err := b.wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- b.wait(context.Background()) }() // blocks ~1s
	time.Sleep(10 * time.Millisecond)
	b.Stop()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("stopped wait returned %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Stop did not wake the blocked waiter")
	}
	b.Stop() // idempotent
}

// TestRandomLabelsUnique: 1,000 distinct domains get 1,000 distinct
// probe labels, each behind the prefix.
func TestRandomLabelsUnique(t *testing.T) {
	sc := newScanner(netsim.NewNetwork(1), 0)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		l := sc.probeLabel(dnswire.MustParseName(fmt.Sprintf("d%d.example", i)))
		if seen[l] {
			t.Fatalf("duplicate label %s", l)
		}
		if !strings.HasPrefix(l, "zz-probe-") {
			t.Fatalf("label %q misses prefix", l)
		}
		seen[l] = true
	}
}

func TestEncodeNDJSON(t *testing.T) {
	r := Result{
		Facts: compliance.ZoneFacts{
			Domain:  dnswire.MustParseName("a.example"),
			DNSKEYs: []dnswire.DNSKEY{{Flags: 256, Protocol: 3}},
			NSEC3PARAMs: []dnswire.NSEC3PARAM{{
				HashAlg: 1, Iterations: 5, Salt: []byte{0xAB},
			}},
			NSEC3s:  []dnswire.NSEC3{{HashAlg: 1}},
			NSHosts: []dnswire.Name{dnswire.MustParseName("ns1.op.example")},
		},
		Queries: 4,
	}
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Write(r); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["domain"] != "a.example." || decoded["dnssec_enabled"] != true {
		t.Fatalf("decoded %v", decoded)
	}
	if decoded["nsec3param"].([]any)[0] != "1 0 5 AB" {
		t.Fatalf("nsec3param = %v", decoded["nsec3param"])
	}
}

// TestEncoderReuse: one Encoder shared across writes (as the per-worker
// sinks in cmd/nsec3scan share it) emits one valid JSON object per line.
func TestEncoderReuse(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	domains := []string{"a.example", "b.example", "c.example"}
	for _, d := range domains {
		r := Result{Facts: compliance.ZoneFacts{Domain: dnswire.MustParseName(d)}, Queries: 1}
		if err := enc.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(domains) {
		t.Fatalf("%d NDJSON lines, want %d", len(lines), len(domains))
	}
	for i, line := range lines {
		var decoded map[string]any
		if err := json.Unmarshal([]byte(line), &decoded); err != nil {
			t.Fatalf("line %d invalid: %v", i, err)
		}
		if decoded["domain"] != domains[i]+"." {
			t.Fatalf("line %d domain %v, want %s.", i, decoded["domain"], domains[i])
		}
	}
}

// TestJitterDeterministicAndBounded: equal jitter must stay inside
// [d/2, d) and be equal for equal inputs — the property that keeps
// retry schedules replayable.
func TestJitterDeterministicAndBounded(t *testing.T) {
	mk := func() *Scanner {
		return New(Config{Exchanger: netsim.NewNetwork(1), Seed: 42})
	}
	a, b := mk(), mk()
	base := 80 * time.Millisecond
	qname := dnswire.MustParseName("a.example")
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		ja := a.jitter(base, qname, dnswire.TypeDNSKEY, i)
		if ja < base/2 || ja >= base {
			t.Fatalf("jitter %v outside [%v, %v)", ja, base/2, base)
		}
		if jb := b.jitter(base, qname, dnswire.TypeDNSKEY, i); jb != ja {
			t.Fatalf("attempt %d: same inputs diverged: %v vs %v", i, ja, jb)
		}
		seen[ja] = true
	}
	if len(seen) < 190 {
		t.Fatalf("200 attempts drew %d distinct jitters", len(seen))
	}
	if d := a.jitter(1, qname, dnswire.TypeDNSKEY, 0); d != 1 {
		t.Fatalf("degenerate backoff mangled: %v", d)
	}
}

// TestScannerMetrics drives a flaky transport with an instrumented
// scanner and checks the counters account for every attempt, retry,
// and backoff sleep.
func TestScannerMetrics(t *testing.T) {
	net, u := scanWorld(t, 300)
	flaky := &flakyExchanger{inner: net, failures: 2}
	reg := obs.NewRegistry()
	sc := New(Config{
		Exchanger: flaky, Resolver: netsim.Addr4(1, 1, 1, 1),
		Workers: 1, Seed: 7,
		Obs: reg,
	})
	defer sc.Close()
	var spec *population.DomainSpec
	for i := range u.Domains {
		if u.Domains[i].NSEC3 {
			spec = &u.Domains[i]
			break
		}
	}
	r := sc.ScanDomain(context.Background(), spec.Name)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	queries := reg.Counter("scanner_queries_total", "").Value()
	if queries != uint64(flaky.calls) {
		t.Errorf("scanner_queries_total %d, transport saw %d calls", queries, flaky.calls)
	}
	retries := reg.Counter("scanner_retries_total", "").Value()
	if retries != uint64(flaky.fails) {
		t.Errorf("scanner_retries_total %d, want %d (one retry per failure)", retries, flaky.fails)
	}
	if v := reg.Counter("scanner_retry_backoff_nanoseconds_total", "").Value(); v == 0 {
		t.Error("no backoff time recorded despite retries")
	}
	rtt := reg.Histogram("scanner_query_rtt_seconds", "", obs.DurationBuckets())
	if rtt.Count() != queries {
		t.Errorf("RTT histogram saw %d observations, want %d", rtt.Count(), queries)
	}
}

// TestScannerLimiterWaitMetric: a starved token bucket must show up in
// the limiter-wait counter.
func TestScannerLimiterWaitMetric(t *testing.T) {
	net, u := scanWorld(t, 300)
	reg := obs.NewRegistry()
	sc := New(Config{
		Exchanger: net, Resolver: netsim.Addr4(1, 1, 1, 1),
		Workers: 2, QPS: 200, Seed: 7,
		Obs: reg,
	})
	defer sc.Close()
	for i := 0; i < 3; i++ {
		if r := sc.ScanDomain(context.Background(), u.Domains[i].Name); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if v := reg.Counter("scanner_limiter_wait_nanoseconds_total", "").Value(); v == 0 {
		t.Error("limiter wait not recorded despite a dry bucket")
	}
}

// TestEncoderWriteAnyInterleaves: scan results and tracer spans share
// one Encoder, each line staying valid standalone JSON.
func TestEncoderWriteAnyInterleaves(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	tr := obs.NewTracer(enc)
	sp := tr.Start("scan", 1)
	r := Result{Facts: compliance.ZoneFacts{Domain: dnswire.MustParseName("a.example")}, Queries: 1}
	if err := enc.Write(r); err != nil {
		t.Fatal(err)
	}
	sp.End()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2 (result + span)", len(lines))
	}
	var res struct {
		Domain string `json:"domain"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &res); err != nil || res.Domain != "a.example." {
		t.Fatalf("result line: %v / %+v", err, res)
	}
	var span struct {
		Span  string `json:"span"`
		Shard int    `json:"shard"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &span); err != nil || span.Span != "scan" || span.Shard != 1 {
		t.Fatalf("span line: %v / %+v", err, span)
	}
}

// TestScanHighIterationDomainViaCD verifies the scanner retrieves NSEC3
// records even from zones a validating resolver would SERVFAIL on —
// the CD bit at work.
func TestScanHighIterationDomainViaCD(t *testing.T) {
	// Build a dedicated world with one 500-iteration domain behind a
	// Cloudflare-policy resolver (SERVFAIL above 150 without CD).
	b := testbed.NewBuilder(1709251200, 1717200000)
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.Root, Sign: zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(198, 41, 0, 4),
	})
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("test"), Sign: zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(192, 5, 6, 30),
	})
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("heavy.test"),
		Sign: zone.SignConfig{
			Denial: zone.DenialNSEC3,
			NSEC3:  nsec3.Params{Iterations: 500, Salt: []byte{1, 2}},
		},
		Server: netsim.Addr4(203, 0, 113, 50),
	})
	net := netsim.NewNetwork(3)
	h, err := b.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	res := resolver.New(resolver.Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: net,
		Policy: respop.Cloudflare.Policy,
		Now:    func() uint32 { return 1712000000 },
	})
	net.Register(netsim.Addr4(1, 1, 1, 1), res)
	sc := newScanner(net, 0)
	r := sc.ScanDomain(context.Background(), dnswire.MustParseName("heavy.test"))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	c := compliance.Classify(r.Facts)
	if !c.NSEC3Enabled || c.Iterations != 500 || c.SaltLen != 2 {
		t.Fatalf("heavy domain misread: %+v", c)
	}
}

// emptyExchanger answers every query NOERROR with no records, so a
// scan ends after its DNSKEY query; a done context fails the query.
type emptyExchanger struct{}

func (emptyExchanger) Exchange(ctx context.Context, _ netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := *q
	r.Header.Response = true
	return &r, nil
}

// streamSource hands out d0.test. … d(n-1).test. in order and fails
// the test if Next is entered while another call is still inside it,
// or called again after reporting the stream exhausted. onNext, when
// set, runs inside the call that hands out domain i.
type streamSource struct {
	t        testing.TB
	n, i     int
	inFlight atomic.Int32
	ended    bool
	onNext   func(i int)
}

func (s *streamSource) Next() (dnswire.Name, bool) {
	if s.inFlight.Add(1) != 1 {
		s.t.Error("Source.Next entered concurrently")
	}
	defer s.inFlight.Add(-1)
	if s.ended {
		s.t.Error("Source.Next called after it returned false")
	}
	if s.i >= s.n {
		s.ended = true
		return "", false
	}
	i := s.i
	s.i++
	if s.onNext != nil {
		s.onNext(i)
	}
	return dnswire.Name(fmt.Sprintf("d%d.test.", i)), true
}

// scanStream runs ScanAll over src on workers workers and returns each
// worker's sink, checking that newSink ran once per worker, in order.
func scanStream(t *testing.T, ctx context.Context, workers int, src Source) ([]*countingSink, error) {
	t.Helper()
	sc := New(Config{Exchanger: emptyExchanger{}, Workers: workers, Seed: 7})
	defer sc.Close()
	var sinks []*countingSink
	err := sc.ScanAll(ctx, src, func(worker int) Sink {
		if worker != len(sinks) {
			t.Errorf("newSink(%d) called as call %d", worker, len(sinks))
		}
		s := &countingSink{}
		sinks = append(sinks, s)
		return s
	})
	if len(sinks) != workers {
		t.Errorf("newSink ran %d times, want %d", len(sinks), workers)
	}
	return sinks, err
}

// scannedOnce counts each domain's results across sinks and fails on
// any domain that reached more than one sink, or one sink twice.
func scannedOnce(t *testing.T, sinks []*countingSink) map[dnswire.Name]bool {
	t.Helper()
	seen := map[dnswire.Name]bool{}
	for _, s := range sinks {
		for _, r := range s.results {
			if seen[r.Facts.Domain] {
				t.Errorf("%s scanned twice", r.Facts.Domain)
			}
			seen[r.Facts.Domain] = true
		}
	}
	return seen
}

// TestScanAllStreamContract streams n domains through ScanAll on each
// worker count: Next is never entered concurrently nor called past the
// end, newSink runs once per worker in order (n < Workers too), and
// every domain reaches exactly one sink exactly once.
func TestScanAllStreamContract(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			src := &streamSource{t: t, n: n}
			sinks, err := scanStream(t, context.Background(), workers, src)
			if err != nil {
				t.Fatalf("workers %d, n %d: %v", workers, n, err)
			}
			seen := scannedOnce(t, sinks)
			if len(seen) != n {
				t.Fatalf("workers %d, n %d: %d domains scanned", workers, n, len(seen))
			}
			for i := range n {
				if d := dnswire.Name(fmt.Sprintf("d%d.test.", i)); !seen[d] {
					t.Fatalf("workers %d, n %d: %s never scanned", workers, n, d)
				}
			}
		}
	}
}

// TestScanAllCancelAfterExhaustion cancels inside the Next call that
// ends the stream: nothing was left unfed, so ScanAll returns nil.
func TestScanAllCancelAfterExhaustion(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelAtEnd{streamSource: streamSource{t: t, n: 20}, cancel: cancel}
		sinks, err := scanStream(t, ctx, workers, src)
		cancel()
		if err != nil {
			t.Fatalf("workers %d: err = %v, want nil", workers, err)
		}
		if seen := scannedOnce(t, sinks); len(seen) != 20 {
			t.Fatalf("workers %d: %d domains scanned, want 20", workers, len(seen))
		}
	}
}

// cancelAtEnd cancels its context when the stream runs out.
type cancelAtEnd struct {
	streamSource
	cancel context.CancelFunc
}

func (c *cancelAtEnd) Next() (dnswire.Name, bool) {
	d, ok := c.streamSource.Next()
	if !ok {
		c.cancel()
	}
	return d, ok
}

// TestScanAllCancelMidFeed cancels inside the Next call that hands out
// domain 3 of 1000: ScanAll makes no further Next call, domains 0–3
// each reach one sink once, and context.Canceled comes back.
func TestScanAllCancelMidFeed(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &streamSource{t: t, n: 1000}
		src.onNext = func(i int) {
			if i == 3 {
				cancel()
			}
		}
		sinks, err := scanStream(t, ctx, workers, src)
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if src.i != 4 || src.ended {
			t.Fatalf("workers %d: Next handed out %d domains (ended %v), want 4", workers, src.i, src.ended)
		}
		if seen := scannedOnce(t, sinks); len(seen) != 4 {
			t.Fatalf("workers %d: %d domains scanned, want 4", workers, len(seen))
		}
	}
}
