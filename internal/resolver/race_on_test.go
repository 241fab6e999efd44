//go:build race

package resolver

// raceEnabled reports whether the race detector is active: allocation
// pins skip under -race, whose instrumentation allocates on its own.
const raceEnabled = true
