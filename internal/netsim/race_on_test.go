//go:build race

package netsim

// raceEnabled reports whether the race detector is active. Allocation
// pin tests that depend on sync.Pool reuse skip under -race: the
// detector deliberately drops pooled items to widen its search, which
// makes steady-state allocation counts nondeterministic.
const raceEnabled = true
