//go:build race

package authserver

// raceEnabled reports whether the race detector is active. Allocation
// pin tests skip under -race: the detector's instrumentation makes
// allocation counts nondeterministic.
const raceEnabled = true
