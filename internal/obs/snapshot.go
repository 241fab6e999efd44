package obs

import (
	"fmt"
	"math"
)

// Snapshot is the serializable point-in-time state of a Registry: the
// form worker processes ship their per-shard metrics back to the
// coordinator in. Registry.Merge folds one in: counters and histogram
// buckets sum, gauges take the maximum, so snapshots merge
// order-independently.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Help carries the first-registration help text so a merged
	// registry renders the same /metrics comments as a local one.
	Help map[string]string `json:"help,omitempty"`
}

// HistogramSnapshot is one histogram's serializable state.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds.
	Bounds []float64 `json:"bounds"`
	// Counts holds len(Bounds)+1 non-cumulative bucket counts; the
	// last entry is the +Inf bucket.
	Counts []uint64 `json:"counts"`
	Sum    float64  `json:"sum"`
}

// Snapshot captures the registry's current state. A nil registry
// yields a nil snapshot (which Merge treats as a no-op).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	help := make(map[string]string, len(r.help))
	for n, t := range r.help {
		help[n] = t
	}
	r.mu.Unlock()

	s := &Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(histograms)),
		Help:       help,
	}
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range histograms {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[n] = hs
	}
	return s
}

// Merge folds a snapshot into the registry: counters and histogram
// buckets sum, gauges take the maximum, missing metrics are created
// with the snapshot's help text. Folding snapshots in any order yields
// the same totals — the property TestRegistryMergeOrderIndependence
// pins. It fails only when a histogram name carries different bucket
// bounds, or a snapshot metric collides with an existing metric of
// another type.
func (r *Registry) Merge(s *Snapshot) (err error) {
	if r == nil || s == nil {
		return nil
	}
	// The registry panics on a name registered as two different types;
	// a snapshot comes off the wire, so surface that as an error.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("obs: snapshot merge: %v", p)
		}
	}()
	for n, v := range s.Counters {
		r.Counter(n, s.Help[n]).Add(v)
	}
	for n, v := range s.Gauges {
		g := r.Gauge(n, s.Help[n])
		if v > g.Value() {
			g.Set(v)
		}
	}
	for n, hs := range s.Histograms {
		if len(hs.Counts) != len(hs.Bounds)+1 {
			return fmt.Errorf("obs: snapshot histogram %q has %d counts for %d bounds", n, len(hs.Counts), len(hs.Bounds))
		}
		h := r.Histogram(n, s.Help[n], hs.Bounds)
		if len(h.bounds) != len(hs.Bounds) {
			return fmt.Errorf("obs: snapshot histogram %q: %w", n, ErrBucketMismatch)
		}
		for i, b := range h.bounds {
			if hs.Bounds[i] != b {
				return fmt.Errorf("obs: snapshot histogram %q: %w", n, ErrBucketMismatch)
			}
		}
		for i, c := range hs.Counts {
			h.counts[i].Add(c)
		}
		for {
			old := h.sum.Load()
			next := math.Float64bits(math.Float64frombits(old) + hs.Sum)
			if h.sum.CompareAndSwap(old, next) {
				break
			}
		}
	}
	return nil
}
