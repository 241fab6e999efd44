package span

import (
	"context"
	"testing"
)

// TestSelfTimeIsDurationMinusUnionOfChildren builds spans by hand:
// overlapping children must not be subtracted twice, and a child that
// outlives its parent is clipped to it.
func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	r := NewRecorder()
	r.spans = []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "b", Start: 30, End: 60, Parent: 1},  // overlaps a by 10
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1}, // 20 past the parent's end
		{ID: 5, Name: "leaf", Start: 12, End: 20, Parent: 2},
	}
	self := make(map[int64]int64)
	for _, s := range r.Finish() {
		self[s.ID] = s.Self
	}
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 8, 3: 30, 4: 30, 5: 8}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestContextCarriesParentAndRequest(t *testing.T) {
	r := NewRecorder()
	ctx, outer := r.Start(WithReq(context.Background(), 7), "outer")
	_, inner := r.Start(ctx, "inner")
	inner.End()
	outer.End()
	spans := r.Finish()
	if len(spans) != 2 || spans[0].Name != "outer" || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans %+v: want inner under outer", spans)
	}
	if spans[0].Req != 7 || spans[1].Req != 7 {
		t.Errorf("requests %d and %d, want 7 and 7", spans[0].Req, spans[1].Req)
	}
	if spans[0].Self+spans[1].Self != spans[0].End-spans[0].Start {
		t.Errorf("self times %d+%d do not add up to the outer span's %d", spans[0].Self, spans[1].Self, spans[0].End-spans[0].Start)
	}

	var none *Recorder
	ctx2, sp := none.Start(context.Background(), "ignored")
	if sp.End() != 0 || ctx2 != context.Background() {
		t.Error("a nil recorder must record nothing")
	}
}
