// Package determinism is a golden-file fixture. It is type-checked by
// the lint tests under the fake import path "repro/internal/population"
// so the determinism analyzer treats it as in scope. Lines marked
// `// want "..."` must produce a matching diagnostic; unmarked lines
// must stay silent.
package determinism

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"
)

func wallClock() time.Time {
	t := time.Now() // want `call to time\.Now leaks the wall clock`
	return t
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `call to time\.Since leaks the wall clock`
}

// fixedDate is a near miss: constructing a specific instant is
// deterministic and allowed.
func fixedDate() time.Time {
	return time.Date(2024, 1, 15, 0, 0, 0, 0, time.UTC)
}

func globalDraw() int {
	return rand.IntN(10) // want `call to rand\.IntN draws from the global rand source`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `call to rand\.Shuffle draws from the global rand source`
}

// seededDraw is a near miss: constructors are allowed and methods on a
// seeded stream are the sanctioned pattern.
func seededDraw(seed uint64) int {
	rng := rand.New(rand.NewPCG(seed, seed))
	return rng.IntN(10)
}

func printDuringRange(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `output written inside range over map m depends on map iteration order`
	}
}

func appendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map m depends on map iteration order`
	}
	return keys
}

// appendSorted is a near miss: the slice is sorted after the loop in
// the same block, so map order cannot leak out.
func appendSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// perIterationLocal is a near miss: the accumulator is declared inside
// the loop body and rebuilt each pass, so map order cannot leak.
func perIterationLocal(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var acc []int
		acc = append(acc, vs...)
		total += len(acc)
	}
	return total
}

// countRange is a near miss: pure accumulation is order-insensitive.
func countRange(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// annotatedRoot is a near miss: the //repro:nondeterministic directive
// (with a reason) marks a sanctioned root, so the intraprocedural scan
// skips the body.
//
//repro:nondeterministic fixture: telemetry clock, never report data
func annotatedRoot() time.Time {
	return time.Now()
}

// bareAnnotation does NOT waive the finding: a directive without a
// reason is no waiver, and is a finding of its own.
//
//repro:nondeterministic
func bareAnnotation() time.Time { // want `//repro:nondeterministic directive without a reason`
	return time.Now() // want `call to time.Now leaks the wall clock`
}
