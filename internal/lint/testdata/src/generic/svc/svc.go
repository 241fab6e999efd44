// Package svc is the ctxprop half of the generic fixture: callers that
// reach the engine's blocking send without a context parameter of their
// own. ctxprop follows static edges only, so what is pinned here is
// that a call edge into a generic function exists however its type
// arguments were written.
package svc

import (
	"context"
	"time"

	"repro/internal/engine"
)

// Server keeps its context in a field — the anti-pattern that lets a
// method block with no way for its caller to cancel.
type Server struct {
	ctx  context.Context
	done chan struct{}
}

// Inferred calls Run with inferred type arguments.
func (s *Server) Inferred() []time.Time { // want `\(\*Server\)\.Inferred is on a blocking path to a bare struct\{\}-channel send \(semaphore acquire\) without a context\.Context parameter: \(\*Server\)\.Inferred → engine\.Run`
	return engine.Run(s.ctx, engine.ClockStudy{}, s.done)
}

// Explicit spells every type argument: the callee is an index-list
// expression.
func (s *Server) Explicit() [][]byte { // want `\(\*Server\)\.Explicit is on a blocking path to a bare struct\{\}-channel send \(semaphore acquire\) without a context\.Context parameter: \(\*Server\)\.Explicit → engine\.Run`
	return engine.Run[engine.WireStudy, int, []byte](s.ctx, engine.WireStudy{}, s.done)
}

// Partial spells the first and lets the rest be inferred: the callee
// is an index expression.
func (s *Server) Partial() []time.Time { // want `\(\*Server\)\.Partial is on a blocking path to a bare struct\{\}-channel send \(semaphore acquire\) without a context\.Context parameter: \(\*Server\)\.Partial → engine\.Run`
	return engine.Run[engine.ClockStudy](s.ctx, engine.ClockStudy{}, s.done)
}

// WithCtx is the compliant twin.
func WithCtx(ctx context.Context, done chan struct{}) []time.Time {
	return engine.Run[engine.ClockStudy](ctx, engine.ClockStudy{}, done)
}
