// Package core is the detertaint half of the generic fixture: its fake
// import path ends in internal/core, so a path from here to the wall
// clock is reported — and every path below runs through the generic
// engine.
package core

import (
	"context"
	"time"

	"repro/internal/engine"
)

// Survey instantiates the engine by inference. The chain crosses the
// type-parameter method call inside Run.
func Survey(ctx context.Context, done chan struct{}) []time.Time { // want `core\.Survey reaches nondeterminism source time\.Now: core\.Survey → engine\.Run → ClockStudy\.Execute → time\.Now`
	return engine.Run(ctx, engine.ClockStudy{}, done)
}

// Probe instantiates the engine explicitly, with the deterministic
// study. The graph has one node for Run, whose s.Execute reaches every
// instantiation's body, so Probe is reported too: over-approximation,
// never a lost chain.
func Probe(ctx context.Context, done chan struct{}) [][]byte { // want `core\.Probe reaches nondeterminism source time\.Now: core\.Probe → engine\.Run → ClockStudy\.Execute → time\.Now`
	return engine.Run[engine.WireStudy, int, []byte](ctx, engine.WireStudy{}, done)
}

// Cached goes through a Runner: a method of a generic type calling
// through a field of generic interface type.
func Cached(ctx context.Context) time.Time { // want `core\.Cached reaches nondeterminism source time\.Now: core\.Cached → \(\*Runner\)\.Do → ClockStudy\.Execute → time\.Now`
	return engine.NewRunner[engine.ClockStudy](engine.ClockStudy{}).Do(ctx, 0)
}

// Pure is a near miss: it names the engine's types but calls nothing.
func Pure() engine.Study[int, time.Time] { return engine.ClockStudy{} }
