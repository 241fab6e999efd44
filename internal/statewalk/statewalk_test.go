package statewalk

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/obs"
	"repro/internal/respop"
	"repro/internal/scanner"
)

// TestEnumerateIndexPure pins the enumerator's determinism contract:
// indices are positional, IDs unique, repeated calls identical.
func TestEnumerateIndexPure(t *testing.T) {
	a, b := Enumerate(), Enumerate()
	if len(a) != len(b) {
		t.Fatalf("Enumerate length changed between calls: %d vs %d", len(a), len(b))
	}
	ids := make(map[string]int)
	for i, tp := range a {
		if tp.Index != i {
			t.Errorf("Enumerate()[%d].Index = %d", i, tp.Index)
		}
		if a[i] != b[i] {
			t.Errorf("Enumerate()[%d] differs between calls: %+v vs %+v", i, a[i], b[i])
		}
		if prev, dup := ids[tp.ID()]; dup {
			t.Errorf("duplicate topology ID %q at indices %d and %d", tp.ID(), prev, i)
		}
		ids[tp.ID()] = i
	}
}

// TestStatewalkNoUnexplainedDivergences is the main differential gate:
// every (topology × profile) cell through the real resolver, zero
// divergences the model cannot explain. The ISSUE floor is 200 cells.
func TestStatewalkNoUnexplainedDivergences(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	sum, err := Run(context.Background(), Config{
		Seed: 1,
		Out:  scanner.NewEncoder(&buf),
		Obs:  reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Cells < 200 {
		t.Fatalf("ran %d cells, want >= 200", sum.Cells)
	}
	if sum.Cells != sum.Topologies*sum.Profiles {
		t.Errorf("cells %d != topologies %d × profiles %d", sum.Cells, sum.Topologies, sum.Profiles)
	}
	if sum.Unexplained != 0 {
		t.Errorf("%d unexplained divergences (of %d total):\n%s",
			sum.Unexplained, sum.Divergences, buf.String())
	}
	t.Logf("statewalk: %d topologies × %d profiles = %d cells, %d divergences (%d unexplained)",
		sum.Topologies, sum.Profiles, sum.Cells, sum.Divergences, sum.Unexplained)
}

// TestStatewalkMinimizationTransparent runs the whole matrix with RFC
// 9156 QNAME minimization switched on in every profile and requires the
// triple the model predicts for the unminimized profile: how many
// labels each hop of the resolver's walk exposes must never change a
// (RCODE, AD, EDE) verdict, under any vendor limit or response shape.
func TestStatewalkMinimizationTransparent(t *testing.T) {
	w, err := BuildWorld(1)
	if err != nil {
		t.Fatalf("BuildWorld: %v", err)
	}
	cell := 0
	for _, topo := range w.Topologies {
		for _, prof := range respop.Profiles() {
			want := Expect(topo, prof.Policy)
			prof.Policy.QNameMinimization = true
			rec, err := runCell(context.Background(), w, cell, topo, prof, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Observed != want.JSON() {
				t.Errorf("%s × %s minimized: observed %+v, want %+v\ntrace: %v",
					topo.ID(), prof.Policy.Name, rec.Observed, want.JSON(), rec.Trace)
			}
			cell++
		}
	}
	if cell < 200 {
		t.Fatalf("ran %d cells, want >= 200", cell)
	}
}

// TestStatewalkVerifyMemoTransparent runs the whole matrix twice, once
// with every cell verifying for itself and once with a single
// dnssec.VerifyMemo shared by all cells: the observed triple and the
// upstream query trace of every cell must be identical, whichever
// profile's resolver first put a verdict there.
func TestStatewalkVerifyMemoTransparent(t *testing.T) {
	w, err := BuildWorld(1)
	if err != nil {
		t.Fatalf("BuildWorld: %v", err)
	}
	reg := obs.NewRegistry()
	memo := dnssec.NewVerifyMemo(reg)
	cell := 0
	for _, topo := range w.Topologies {
		for _, prof := range respop.Profiles() {
			plain, err := runCell(context.Background(), w, cell, topo, prof, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := runCell(context.Background(), w, cell, topo, prof, memo, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(shared, plain) {
				t.Errorf("%s × %s: shared memo changed the cell\n with: %+v\nwithout: %+v",
					topo.ID(), prof.Policy.Name, shared, plain)
			}
			cell++
		}
	}
	if cell != 33*14 {
		t.Fatalf("ran %d cells, want %d", cell, 33*14)
	}
	requests := reg.Counter("resolver_sig_verifications_total", "").Value()
	hits := reg.Counter("resolver_sig_verify_memo_hits_total", "").Value()
	if hits == 0 || hits >= requests {
		t.Fatalf("memo never shared or never missed: %d hits of %d checks", hits, requests)
	}
}

// TestStatewalkDelegationCacheTransparent runs the whole matrix on
// resolvers whose delegation cache already holds every cut on the way
// to the cell's question, with and without QNAME minimization, and
// requires the triple the model predicts for a cold resolver: where the
// walk starts must never change a (RCODE, AD, EDE) verdict. The warm
// probes must also have sent fewer upstream queries than cold ones, or
// the cache was never consulted and the test proves nothing.
func TestStatewalkDelegationCacheTransparent(t *testing.T) {
	w, err := BuildWorld(1)
	if err != nil {
		t.Fatalf("BuildWorld: %v", err)
	}
	cell, coldQueries, warmQueries := 0, 0, 0
	for _, topo := range w.Topologies {
		for _, prof := range respop.Profiles() {
			want := Expect(topo, prof.Policy)
			for _, minimize := range []bool{false, true} {
				prof.Policy.QNameMinimization = minimize
				cold, err := runCell(context.Background(), w, cell, topo, prof, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := runCell(context.Background(), w, cell, topo, prof, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				if warm.Observed != want.JSON() {
					t.Errorf("%s × %s (minimized %v) with warm cuts: observed %+v, want %+v\ntrace: %v",
						topo.ID(), prof.Policy.Name, minimize, warm.Observed, want.JSON(), warm.Trace)
				}
				coldQueries += len(cold.Trace)
				warmQueries += len(warm.Trace)
			}
			cell++
		}
	}
	if cell != 33*14 {
		t.Fatalf("ran %d cells, want %d", cell, 33*14)
	}
	if warmQueries >= coldQueries {
		t.Fatalf("warm cuts saved nothing: %d distinct upstream queries warm, %d cold", warmQueries, coldQueries)
	}
	t.Logf("distinct upstream queries over the matrix: %d cold, %d with warm cuts", coldQueries, warmQueries)
}

// runRange executes [offset, offset+limit) with EmitCells and returns
// the NDJSON bytes.
func runRange(t *testing.T, offset, limit int) []byte {
	t.Helper()
	var buf bytes.Buffer
	_, err := Run(context.Background(), Config{
		Seed:      7,
		Offset:    offset,
		Limit:     limit,
		EmitCells: true,
		Out:       scanner.NewEncoder(&buf),
	})
	if err != nil {
		t.Fatalf("Run(offset=%d, limit=%d): %v", offset, limit, err)
	}
	return buf.Bytes()
}

// TestStatewalkSplitEquivalence is the statewalk twin of
// TestSurveyShardEquivalence: the report of [0,n) must be byte-identical
// to the concatenation of [0,k) and [k,n), proving emission order and
// record content are independent of range splits and worker scheduling.
func TestStatewalkSplitEquivalence(t *testing.T) {
	const n, k = 60, 23
	whole := runRange(t, 0, n)
	split := append(runRange(t, 0, k), runRange(t, k, n-k)...)
	if !bytes.Equal(whole, split) {
		t.Fatalf("split-range report differs from whole-range report:\nwhole:\n%s\nsplit:\n%s", whole, split)
	}
	if len(bytes.TrimSpace(whole)) == 0 {
		t.Fatal("EmitCells produced no records")
	}
	// A second whole-range run must also be byte-identical (same seed ⇒
	// same report).
	if again := runRange(t, 0, n); !bytes.Equal(whole, again) {
		t.Fatal("repeated run with the same seed produced different bytes")
	}
}

// corpusDirFor maps a fuzz target to the package testdata directory its
// seeds are committed under.
func corpusDirFor(target string) string {
	switch target {
	case "FuzzDecodeMessage":
		return filepath.Join("..", "dnswire", "testdata", "fuzz", "FuzzDecodeMessage")
	case "FuzzHash":
		return filepath.Join("..", "nsec3", "testdata", "fuzz", "FuzzHash")
	}
	return ""
}

// TestBoundaryCorpusSeedsCommitted pins the committed fuzz-corpus seeds
// to the minimizer's output: one FuzzDecodeMessage + one FuzzHash seed
// per iteration-limit boundary topology. Regenerate with
// STATEWALK_WRITE_CORPUS=1 after changing the minimizer.
func TestBoundaryCorpusSeedsCommitted(t *testing.T) {
	seeds, err := BoundarySeeds()
	if err != nil {
		t.Fatalf("BoundarySeeds: %v", err)
	}
	if want := 2 * len(BoundaryIterations); len(seeds) != want {
		t.Fatalf("got %d seeds, want %d", len(seeds), want)
	}
	if os.Getenv("STATEWALK_WRITE_CORPUS") == "1" {
		for _, s := range seeds {
			if err := WriteSeeds(filepath.Dir(corpusDirFor(s.Target)), []CorpusSeed{s}); err != nil {
				t.Fatalf("writing %s/%s: %v", s.Target, s.Name, err)
			}
		}
	}
	for _, s := range seeds {
		path := filepath.Join(corpusDirFor(s.Target), s.Name)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("committed corpus seed missing (run with STATEWALK_WRITE_CORPUS=1 to generate): %v", err)
		}
		if !bytes.Equal(got, s.Body) {
			t.Errorf("%s drifted from the minimizer's output", path)
		}
	}
}

// TestSeedsForTopologyDeterministic guards the corpus encoder: seed
// bytes are a pure function of the topology.
func TestSeedsForTopologyDeterministic(t *testing.T) {
	for _, tp := range Enumerate() {
		if tp.Shape != ShapeSecureNX {
			continue
		}
		a, err := SeedsForTopology(tp)
		if err != nil {
			t.Fatalf("SeedsForTopology(%s): %v", tp.ID(), err)
		}
		b, _ := SeedsForTopology(tp)
		for i := range a {
			if a[i].Target != b[i].Target || a[i].Name != b[i].Name || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Errorf("%s seed %d not deterministic", tp.ID(), i)
			}
			if !bytes.HasPrefix(a[i].Body, []byte("go test fuzz v1\n")) {
				t.Errorf("%s seed %d missing go-fuzz v1 header", tp.ID(), i)
			}
		}
	}
	if _, err := SeedsForTopology(TopologySpec{Index: 99, Shape: ShapeSecureNX, Iterations: 2501}); err != nil {
		t.Fatalf("seed for synthetic boundary topology: %v", err)
	}
}
