// Package fanout runs index-addressed work on a fixed set of
// goroutines: the shape of signing every RRSIG of a zone, minting every
// key of a hierarchy, transferring every open TLD zone, probing every
// resolver of a resolver-study shard, measuring every Atlas probe
// (atlas.Platform.Measure) and running every statewalk cell
// (statewalk.Run). scanner.ScanAll runs its workers on it too, one
// index per worker, each pulling domains from a stream. Split is the
// balanced contiguous split both studies' shard planners cut their
// index range with.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Each calls f(i) for every i in [0, n) on up to workers goroutines,
// the caller's among them, so workers ≤ 1 spawns nothing. Indices are
// handed out in increasing order; once a call fails no further index
// starts. Each returns the error of the lowest failing index: every
// lower index was handed out earlier and has run, so which error comes
// back does not depend on scheduling.
func Each(n, workers int, f func(i int) error) error {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		failed = n
		first  error
	)
	run := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if err := f(i); err != nil {
				mu.Lock()
				if i < failed {
					failed, first = i, err
				}
				mu.Unlock()
				next.Store(int64(n))
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return first
}

// Split cuts n indices into parts contiguous runs and returns their
// sizes: the first n%parts runs are one longer than the rest. A parts
// count ≤ 0 means one run, one above n means n runs of one, and n = 0
// has no runs.
func Split(n, parts int) []int {
	parts = min(max(parts, 1), n)
	sizes := make([]int, parts)
	for i := range sizes {
		sizes[i] = n / parts
		if i < n%parts {
			sizes[i]++
		}
	}
	return sizes
}
