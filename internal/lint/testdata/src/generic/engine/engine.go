// Package engine is the shared half of the generic fixture: one generic
// plan → execute engine with two instantiations, the shape of
// internal/core's study engine. It is outside detertaint's scope and
// every function on a blocking path takes a context, so neither
// analyzer reports here; the findings land in the two consumer
// packages, and every one of them crosses the generic code — through an
// explicitly instantiated callee (Run[S, J, O](…)), through a method
// call on a type-parameter receiver (s.Execute inside Run), or through
// a field of generic interface type (r.exec.Execute inside Do).
package engine

import (
	"context"
	"net"
	"time"
)

// Study is the contract an instantiation supplies.
type Study[J, O any] interface {
	Plan() []J
	Execute(ctx context.Context, job J) O
}

// Run executes every job of s, then signals done — a bare
// struct{}-channel send, which ctxprop seeds on. Run itself complies:
// it takes ctx.
func Run[S Study[J, O], J, O any](ctx context.Context, s S, done chan struct{}) []O {
	var out []O
	for _, job := range s.Plan() {
		out = append(out, s.Execute(ctx, job))
	}
	done <- struct{}{}
	return out
}

// executor is the Execute half of Study, as a Runner holds it.
type executor[J, O any] interface {
	Execute(ctx context.Context, job J) O
}

// Runner holds its study behind a generic interface field.
type Runner[J, O any] struct{ exec executor[J, O] }

// NewRunner wraps s.
func NewRunner[S Study[J, O], J, O any](s S) *Runner[J, O] {
	return &Runner[J, O]{exec: s}
}

// Do executes one job.
func (r *Runner[J, O]) Do(ctx context.Context, job J) O { return r.exec.Execute(ctx, job) }

// ClockStudy is the nondeterministic instantiation: Execute reads the
// wall clock.
type ClockStudy struct{}

func (ClockStudy) Plan() []int { return []int{0} }

func (ClockStudy) Execute(ctx context.Context, job int) time.Time { return time.Now() }

// WireStudy is the deterministic instantiation: Execute reads a conn,
// under ctx.
type WireStudy struct{ Conn net.Conn }

func (WireStudy) Plan() []int { return []int{0} }

func (w WireStudy) Execute(ctx context.Context, job int) []byte {
	buf := make([]byte, 2)
	if ctx.Err() == nil {
		_, _ = w.Conn.Read(buf)
	}
	return buf
}

// Unrelated has an Execute of a different shape: the loose match for
// interfaces that mention type parameters must still pass it over.
type Unrelated struct{}

func (Unrelated) Execute() time.Time { return time.Now() }
