package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func populated() *Registry {
	r := NewRegistry()
	r.Counter("c_total", "a counter").Add(7)
	r.Gauge("g_rate", "a gauge").Set(2.5)
	h := r.Histogram("h_lat", "a histogram", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	return r
}

// TestSnapshotMergeEqualsRegistryMerge pins the distributed-metrics
// contract: merging snapshots that went through JSON renders the exact
// same /metrics text as merging them in memory.
func TestSnapshotMergeEqualsRegistryMerge(t *testing.T) {
	a, b := populated(), populated()
	b.Counter("c_total", "").Add(3)
	b.Gauge("g_rate", "").Set(9)
	b.Counter("b_only_total", "only in b").Inc()

	direct := NewRegistry()
	merge(t, direct, a)
	merge(t, direct, b)

	viaSnap := NewRegistry()
	for _, src := range []*Registry{b, a} { // reversed order on purpose
		data, err := json.Marshal(src.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		if err := viaSnap.Merge(&s); err != nil {
			t.Fatal(err)
		}
	}

	var want, got bytes.Buffer
	if err := direct.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if err := viaSnap.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("snapshot merge diverges from registry merge:\n--- direct\n%s--- snapshot\n%s", want.String(), got.String())
	}
}

// TestSnapshotNilSafety: nil registries and nil snapshots are no-ops,
// like every other obs operation.
func TestSnapshotNilSafety(t *testing.T) {
	var nilReg *Registry
	if s := nilReg.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshotted to %+v", s)
	}
	if err := nilReg.Merge(&Snapshot{Counters: map[string]uint64{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.Merge(nil); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejectsMalformed: snapshots come off a socket, so shape
// violations are errors, not panics.
func TestSnapshotRejectsMalformed(t *testing.T) {
	r := populated()
	if err := r.Merge(&Snapshot{
		Histograms: map[string]HistogramSnapshot{"h_lat": {Bounds: []float64{1, 10}, Counts: []uint64{1}}},
	}); err == nil {
		t.Error("count/bounds length mismatch accepted")
	}
	if err := r.Merge(&Snapshot{
		Histograms: map[string]HistogramSnapshot{"h_lat": {Bounds: []float64{1, 99}, Counts: []uint64{0, 0, 0}}},
	}); err == nil {
		t.Error("bucket bounds mismatch accepted")
	}
	if err := r.Merge(&Snapshot{
		Histograms: map[string]HistogramSnapshot{"bad": {Bounds: []float64{10, 1}, Counts: []uint64{0, 0, 0}}},
	}); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if err := r.Merge(&Snapshot{
		Counters: map[string]uint64{"g_rate": 1}, // registered as a gauge
	}); err == nil {
		t.Error("type collision accepted")
	}
}
