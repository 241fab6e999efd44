// Package obs is the observability substrate for the whole pipeline:
// an atomic metrics registry (counters, gauges, fixed-bucket
// histograms) that merges other registries' snapshots the way the
// analysis types merge — per-shard and per-worker metrics combine
// order-independently (snapshot.go) — plus a lightweight span tracer
// (trace.go) and a Prometheus-text /metrics + /healthz HTTP endpoint
// (http.go). Everything is standard library only.
//
// Every metric type is safe for concurrent use and safe as a nil
// receiver: an uninstrumented component holds nil metrics and every
// Add/Set/Observe is a no-op, so hot paths need no "is observability
// on?" branches of their own.
//
// The paper's pipeline ran at a scale (302 M domains, 14.7 K qps)
// where a blind scanner is undebuggable; zdns ships per-query metadata
// and throughput accounting for exactly this reason. The registry
// surfaces the same signals for the reproduction: query RTTs, retry
// and rate-limiter pressure, resolver cache behaviour, and the NSEC3
// hash-iteration work the Gruza et al. cost model prices.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float value (a rate, a level).
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. The zero value is not usable; create
// one with NewRegistry. A nil *Registry is valid everywhere and hands
// out nil metrics, so instrumentation can be threaded unconditionally.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// register records help text and guards against a name being reused as
// a different metric type. Callers hold r.mu.
func (r *Registry) register(name, help string, taken bool) {
	if taken {
		panic(fmt.Sprintf("obs: metric %q already registered as a different type", name))
	}
	if _, ok := r.help[name]; !ok {
		r.help[name] = help
	}
}

// Counter returns the counter registered under name, creating it on
// first use (the first registration's help text wins). A nil registry
// returns a nil, no-op counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	_, g := r.gauges[name]
	_, h := r.histograms[name]
	r.register(name, help, g || h)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil, no-op gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	_, c := r.counters[name]
	_, h := r.histograms[name]
	r.register(name, help, c || h)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (later calls ignore
// buckets). A nil registry returns a nil, no-op histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	_, c := r.counters[name]
	_, g := r.gauges[name]
	r.register(name, help, c || g)
	h := newHistogram(buckets)
	r.histograms[name] = h
	return h
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format, sorted by name so the output is stable. It
// renders a Snapshot, so the registry is read one way only.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	if s == nil {
		return nil
	}
	// Every registered name has a Help entry, empty or not.
	names := make([]string, 0, len(s.Help))
	for n := range s.Help {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if t := s.Help[n]; t != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", n, t); err != nil {
				return err
			}
		}
		var err error
		if c, ok := s.Counters[n]; ok {
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c)
		} else if g, ok := s.Gauges[n]; ok {
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, g)
		} else if h, ok := s.Histograms[n]; ok {
			err = h.writePrometheus(w, n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
