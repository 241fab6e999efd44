package obs

// This file is the one place in internal/obs that reads the wall
// clock. The clock reads are sanctioned per function with
// //repro:nondeterministic directives (checked by the determinism
// analyzer, which propagates taint over the cross-package call graph
// and stops at annotated roots). The waiver is deliberate and narrow:
// a span tracer's whole job is to measure real elapsed time, so unlike
// the population/analysis layers it cannot run off the simulation
// clock — and nothing a span measures feeds back into experiment
// output, only into telemetry.

import (
	"time"
)

// LineWriter emits one JSON-encodable value per line. scanner.Encoder
// satisfies it, so a trace shares the scanner's NDJSON machinery (and
// may even share its output stream — WriteAny serializes internally).
type LineWriter interface {
	WriteAny(v any) error
}

// Tracer times named pipeline phases and emits one NDJSON record per
// finished span. A nil *Tracer is valid: spans still time themselves
// (callers use the returned duration for throughput gauges) but
// nothing is emitted.
type Tracer struct {
	w LineWriter
}

// NewTracer creates a tracer writing spans to w (nil w: time only).
func NewTracer(w LineWriter) *Tracer {
	return &Tracer{w: w}
}

// Span is one in-flight phase measurement.
type Span struct {
	t     *Tracer
	phase string
	shard int
	start time.Time
	dur   time.Duration
	ended bool
}

// spanJSON is the NDJSON encoding of a finished span.
type spanJSON struct {
	Span        string  `json:"span"`
	Shard       int     `json:"shard"`
	StartUnixNS int64   `json:"start_unix_ns"`
	DurationNS  int64   `json:"duration_ns"`
	Seconds     float64 `json:"seconds"`
}

// Start begins timing one phase of one shard (use shard 0 for
// unsharded work). Valid on a nil tracer.
//
//repro:nondeterministic span start times are telemetry, never report data
func (t *Tracer) Start(phase string, shard int) *Span {
	return &Span{t: t, phase: phase, shard: shard, start: time.Now()}
}

// End stops the span, emits its NDJSON record when the tracer has a
// writer, and returns the measured duration. Idempotent: later calls
// return the first duration without re-emitting.
//
//repro:nondeterministic span durations are telemetry, never report data
func (s *Span) End() time.Duration {
	if s.ended {
		return s.dur
	}
	s.dur = time.Since(s.start)
	s.ended = true
	if s.t != nil && s.t.w != nil {
		// Telemetry is best-effort: a full disk must not abort the
		// experiment the trace describes.
		_ = s.t.w.WriteAny(spanJSON{
			Span:        s.phase,
			Shard:       s.shard,
			StartUnixNS: s.start.UnixNano(),
			DurationNS:  int64(s.dur),
			Seconds:     s.dur.Seconds(),
		})
	}
	return s.dur
}
