package obs

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
)

// render gives a registry's canonical, order-stable text form — the
// comparison key for the merge property tests.
func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// randomRegistry builds a registry with seeded-random metric activity
// over a shared name space, so merges exercise overlapping and
// disjoint names alike.
func randomRegistry(seed uint64) *Registry {
	rng := rand.New(rand.NewPCG(seed, seed^0xABCD))
	r := NewRegistry()
	names := []string{"alpha_total", "beta_total", "gamma_total"}
	for i := 0; i < 50; i++ {
		r.Counter(names[rng.IntN(len(names))], "test counter").Add(uint64(rng.IntN(100)))
	}
	r.Gauge("rate", "test gauge").Set(rng.Float64() * 100)
	h := r.Histogram("lat_seconds", "test histogram", DurationBuckets())
	for i := 0; i < 30; i++ {
		// Multiples of 1/64 sum exactly in float64, so the merge
		// property can be checked bit-for-bit rather than with an
		// epsilon (plain IEEE addition is not associative).
		h.Observe(float64(rng.IntN(64*5)) / 64)
	}
	return r
}

// merge folds src into dst through a snapshot — the path a worker's
// metrics take to the coordinator.
func merge(t *testing.T, dst, src *Registry) {
	t.Helper()
	if err := dst.Merge(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryMergeOrderIndependence is the property the sharded
// pipeline depends on (mirroring TestSurveyShardEquivalence): merging
// per-shard registries must be commutative and associative, so the
// merge order never shows in the totals.
func TestRegistryMergeOrderIndependence(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		// Commutativity: a+b == b+a.
		ab := randomRegistry(seed)
		merge(t, ab, randomRegistry(seed+100))
		ba := randomRegistry(seed + 100)
		merge(t, ba, randomRegistry(seed))
		if got, want := render(t, ab), render(t, ba); got != want {
			t.Errorf("seed %d: merge not commutative:\na+b:\n%s\nb+a:\n%s", seed, got, want)
		}

		// Associativity: (a+b)+c == a+(b+c).
		left := randomRegistry(seed)
		merge(t, left, randomRegistry(seed+100))
		merge(t, left, randomRegistry(seed+200))
		bc := randomRegistry(seed + 100)
		merge(t, bc, randomRegistry(seed+200))
		right := randomRegistry(seed)
		merge(t, right, bc)
		if got, want := render(t, left), render(t, right); got != want {
			t.Errorf("seed %d: merge not associative:\n(a+b)+c:\n%s\na+(b+c):\n%s", seed, got, want)
		}
	}
}

// TestConcurrentIncrements drives every metric type from many
// goroutines; run under -race this is the registry's thread-safety
// proof, and the final values prove no increment was lost.
func TestConcurrentIncrements(t *testing.T) {
	const workers, perWorker = 16, 1000
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("work_total", "")
			h := r.Histogram("vals", "", []float64{0.25, 0.5, 0.75})
			g := r.Gauge("level", "")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%4) / 4)
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("work_total", "").Value(); got != workers*perWorker {
		t.Errorf("counter lost increments: got %d want %d", got, workers*perWorker)
	}
	h := r.Histogram("vals", "", []float64{0.25, 0.5, 0.75})
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram lost observations: got %d want %d", got, workers*perWorker)
	}
	wantSum := float64(workers*perWorker) * (0 + 0.25 + 0.5 + 0.75) / 4
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum: got %g want %g", got, wantSum)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter should stay 0")
	}
	g := r.Gauge("y", "")
	g.Set(5)
	if g.Value() != 0 {
		t.Error("nil gauge should stay 0")
	}
	h := r.Histogram("z", "", DurationBuckets())
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram should stay empty")
	}
	if err := r.Merge(NewRegistry().Snapshot()); err != nil {
		t.Errorf("nil registry merge: %v", err)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry render: %v, %q", err, buf.String())
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		`d_bucket{le="1"} 2`,    // 0.5 and the boundary value 1
		`d_bucket{le="2"} 3`,    // + 1.5
		`d_bucket{le="4"} 4`,    // + 3
		`d_bucket{le="+Inf"} 5`, // + 100
		"d_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramMergeBucketMismatch(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Histogram("h", "", []float64{1, 2})
	rb.Histogram("h", "", []float64{1, 3})
	if err := ra.Merge(rb.Snapshot()); err == nil {
		t.Fatal("registry merge of mismatched buckets should fail")
	}
}

func TestGaugeMergeIsMax(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Gauge("g", "").Set(3)
	b.Gauge("g", "").Set(7)
	merge(t, a, b)
	if got := a.Gauge("g", "").Value(); got != 7 {
		t.Errorf("gauge merge: got %g want 7", got)
	}
	merge(t, b, a)
	if got := b.Gauge("g", "").Value(); got != 7 {
		t.Errorf("gauge merge, other order: got %g want 7", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("scanner_queries_total", "DNS queries issued").Add(42)
	r.Gauge("survey_domains_per_second", "scan throughput").Set(123.5)
	out := render(t, r)
	for _, want := range []string{
		"# HELP scanner_queries_total DNS queries issued",
		"# TYPE scanner_queries_total counter",
		"scanner_queries_total 42",
		"# TYPE survey_domains_per_second gauge",
		"survey_domains_per_second 123.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestWritePrometheusExact pins the whole exposition text of a small
// registry: names sorted, HELP only where help was given, TYPE lines,
// cumulative histogram buckets, then _sum and _count.
func TestWritePrometheusExact(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second counter").Add(7)
	r.Counter("a_total", "").Add(3)
	r.Gauge("c_level", "a gauge").Set(2.5)
	h := r.Histogram("d_seconds", "a histogram", DurationBuckets())
	for _, v := range []float64{0.25, 0.5, 2, 10} {
		h.Observe(v)
	}
	const want = `# TYPE a_total counter
a_total 3
# HELP b_total second counter
# TYPE b_total counter
b_total 7
# HELP c_level a gauge
# TYPE c_level gauge
c_level 2.5
# HELP d_seconds a histogram
# TYPE d_seconds histogram
d_seconds_bucket{le="1e-06"} 0
d_seconds_bucket{le="1e-05"} 0
d_seconds_bucket{le="0.0001"} 0
d_seconds_bucket{le="0.001"} 0
d_seconds_bucket{le="0.01"} 0
d_seconds_bucket{le="0.1"} 0
d_seconds_bucket{le="0.5"} 2
d_seconds_bucket{le="1"} 2
d_seconds_bucket{le="5"} 3
d_seconds_bucket{le="+Inf"} 4
d_seconds_sum 12.75
d_seconds_count 4
`
	if got := render(t, r); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
