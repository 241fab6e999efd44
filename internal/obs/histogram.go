package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram: cumulative-style observation
// counts per upper bound plus a running sum, all updated atomically.
// Buckets are fixed at construction, which is what makes two
// histograms mergeable — Registry.Merge lets per-worker and per-shard
// observations combine order-independently, mirroring analysis.CDF.
type Histogram struct {
	// bounds are the ascending bucket upper bounds; a final implicit
	// +Inf bucket catches everything above the last bound.
	bounds []float64
	// counts[i] counts observations ≤ bounds[i]; counts[len(bounds)]
	// is the +Inf bucket. Stored non-cumulatively; rendering and
	// Count accumulate.
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

// ErrBucketMismatch reports a merge between histograms with different
// bucket bounds.
var ErrBucketMismatch = errors.New("obs: histogram bucket bounds differ")

// DurationBuckets is the default bucket set for latency-style
// histograms, in seconds: from a microsecond (simulated-network
// exchanges) up past the scanner's 5 s query timeout.
func DurationBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5}
}

// NanosecondBuckets is the bucket set for nanosecond-valued waits —
// the lazy sign-wait histogram: from a microsecond (a waiter arriving
// as the signer finishes) up past a second (a large zone signing under
// contention).
func NanosecondBuckets() []float64 {
	return []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 5e9}
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil): the
// sum of the buckets.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// writePrometheus renders the histogram in the text exposition format:
// cumulative le-labelled buckets, then _sum and _count.
func (h HistogramSnapshot) writePrometheus(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum, name, cum)
	return err
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}
