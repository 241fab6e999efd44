// Package span is the benchmark's own tracer: it records one span per
// call the harness makes across a layer boundary, keeps them in memory,
// and works out each span's self time once the run is over. It lives
// in bench/ because the traced run measures the program from outside;
// spans inside the program are a later change.
package span

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one finished call across a layer boundary. Start and End are
// nanoseconds since the recorder was created. Parent is the ID of the
// span that caused this one (0 for a root); spans of one request —
// one scanned domain, one probed resolver, one query — share Req.
type Span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	// Self is End−Start minus the part of that interval covered by
	// child spans; filled in by Finish.
	Self int64 `json:"self_ns"`
}

// Recorder collects spans; it is safe for concurrent use. A nil
// *Recorder records nothing, so code composed for the traced run also
// runs untraced.
type Recorder struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewRecorder starts an empty recorder; span times count from now.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), spans: make([]Span, 0, 1<<16)}
}

type ctxKey struct{}

// link is what a span leaves in the context for the spans it causes.
type link struct{ id, req int64 }

// Open is a span that has started and not yet ended.
type Open struct {
	r     *Recorder
	name  string
	start int64
	id    int64
	link  link // parent id and request
}

// WithReq returns a context whose spans belong to request req.
func WithReq(ctx context.Context, req int64) context.Context {
	l, _ := ctx.Value(ctxKey{}).(link)
	l.req = req
	return context.WithValue(ctx, ctxKey{}, l)
}

// Start opens a span named name under whichever span ctx carries and
// returns a context that makes the new span the parent of later ones.
func (r *Recorder) Start(ctx context.Context, name string) (context.Context, *Open) {
	if r == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKey{}).(link)
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	o := &Open{r: r, name: name, id: id, link: parent, start: int64(time.Since(r.t0))}
	return context.WithValue(ctx, ctxKey{}, link{id: id, req: parent.req}), o
}

// End closes the span and returns how long it ran; a nil span (from a
// nil recorder) ran for 0.
func (o *Open) End() time.Duration {
	if o == nil {
		return 0
	}
	end := int64(time.Since(o.r.t0))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, Span{
		ID: o.id, Name: o.name, Start: o.start, End: end,
		Parent: o.link.id, Req: o.link.req,
	})
	o.r.mu.Unlock()
	return time.Duration(end - o.start)
}

// Finish computes every span's self time and returns the spans ordered
// by start. Children may overlap one another (two scanner workers under
// one scan span), so the covered part is the union of their intervals,
// clipped to the parent.
func (r *Recorder) Finish() []Span {
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	index := make(map[int64]int, len(spans))
	for i := range spans {
		index[spans[i].ID] = i
	}
	// Children arrive in start order because spans is sorted, so the
	// union is one sweep per parent.
	covered := make([]int64, len(spans))
	reach := make([]int64, len(spans)) // right edge of the union so far
	for i := range spans {
		reach[i] = spans[i].Start
	}
	for i := range spans {
		p, ok := index[spans[i].Parent]
		if !ok {
			continue
		}
		lo, hi := spans[i].Start, spans[i].End
		if lo < reach[p] {
			lo = reach[p]
		}
		if hi > spans[p].End {
			hi = spans[p].End
		}
		if hi > lo {
			covered[p] += hi - lo
			reach[p] = hi
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start - covered[i]
	}
	return spans
}

// Totals sums spans by name.
type Totals struct {
	Count  int64
	SelfNS int64
}

// Sum aggregates finished spans by name.
func Sum(spans []Span) map[string]Totals {
	out := make(map[string]Totals)
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.SelfNS += s.Self
		out[s.Name] = t
	}
	return out
}

// WriteNDJSON writes one span per line to path.
func WriteNDJSON(path string, spans []Span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
