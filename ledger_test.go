// Package repro's root-level tests read the benchmark ledger,
// BENCH.ndjson — one line per PR that measured itself with bench/ —
// against BENCHMARK.json and apply the house acceptance rule to every
// entry: no end-to-end median worse than the parent's by more than the
// metric's bound, no larger share of failed operations, and a claimed
// metric won at least nine tenths of its pairs by more than the parent's
// own interquartile spread. Workload names, metric names, directions and
// bounds come from the manifest; nothing is restated here. They also
// hold the documents to what exists: a ledger line a document cites, a
// test it names.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// manifest is what the ledger check reads of BENCHMARK.json.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// entry is what the check reads of one line of BENCH.ndjson (README.md
// "Benchmarks" lists every key). Summary and Traced are keyed by
// workload; the raw pairs a summary was computed from are in git history
// (BENCH_17.json … BENCH_22.json, deleted by PR 23).
type entry struct {
	PR      int                                      `json:"pr"`
	Claim   *claim                                   `json:"claim"`
	Summary map[string]workloadSummary               `json:"summary"`
	Traced  map[string]map[string]map[string]float64 `json:"traced"`
}

type claim struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// workloadSummary is one workload's object in a summary: a cell per
// end-to-end metric beside the keys that are not metrics.
type workloadSummary struct {
	Correct bool
	Failed  struct{ Parent, Change float64 }
	// DigestsEqual is report_digests_equal: whether both sides printed
	// the same report digest at every seed. Absent (nil) on the online
	// workloads, which print no report, and before PR 19.
	DigestsEqual *bool
	Cells        map[string]cell
}

type cell struct {
	Pairs          int       `json:"pairs"`
	ChangeHigherIn int       `json:"change_higher_in"`
	ChangeLowerIn  int       `json:"change_lower_in"`
	Parent         quartiles `json:"parent"`
	Change         quartiles `json:"change"`
}

type quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func (w *workloadSummary) UnmarshalJSON(b []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	w.Cells = make(map[string]cell)
	for k, v := range raw {
		var err error
		switch k {
		case "correct":
			err = json.Unmarshal(v, &w.Correct)
		case "failed":
			err = json.Unmarshal(v, &w.Failed)
		case "report_digests_equal":
			err = json.Unmarshal(v, &w.DigestsEqual)
		case "report_digests":
		default:
			var c cell
			err = json.Unmarshal(v, &c)
			w.Cells[k] = c
		}
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
	}
	return nil
}

// worseBy is how much worse the change's median is than the parent's,
// as a share of the parent's (negative when it is better): the quantity
// a BENCHMARK.json bound limits.
func (d metricDecl) worseBy(c cell) float64 {
	share := (c.Change.Median - c.Parent.Median) / c.Parent.Median
	if d.Better == "higher" {
		return -share
	}
	return share
}

// wins is the number of pairs in which the change read better.
func (d metricDecl) wins(c cell) int {
	if d.Better == "higher" {
		return c.ChangeHigherIn
	}
	return c.ChangeLowerIn
}

// checkLedger returns one line per way the entries break the acceptance
// rule, each naming the pr and, where there is one, workload × metric.
func checkLedger(m manifest, entries []entry) []string {
	var bad []string
	for i, e := range entries {
		if i > 0 && e.PR <= entries[i-1].PR {
			bad = append(bad, fmt.Sprintf("pr %d: follows pr %d; the ledger is append-only, pr strictly increasing", e.PR, entries[i-1].PR))
		}
		bad = append(bad, checkEntry(m, e)...)
	}
	return bad
}

func checkEntry(m manifest, e entry) []string {
	var bad []string
	fail := func(workload, metric, format string, args ...any) {
		bad = append(bad, fmt.Sprintf("pr %d: %s × %s: ", e.PR, workload, metric)+fmt.Sprintf(format, args...))
	}
	declared := make(map[string]bool)
	for _, w := range m.Workloads {
		declared[w.Name] = true
	}
	for name := range e.Summary {
		if !declared[name] {
			fail(name, "*", "workload is not in BENCHMARK.json")
		}
	}
	for _, w := range m.Workloads {
		s, ok := e.Summary[w.Name]
		if !ok {
			fail(w.Name, "*", "workload missing from the summary")
			continue
		}
		if !s.Correct {
			fail(w.Name, "correct", "false")
		}
		if s.Failed.Change > s.Failed.Parent {
			fail(w.Name, "failed", "%v failed operations on the change, %v on the parent", s.Failed.Change, s.Failed.Parent)
		}
		if s.DigestsEqual != nil && !*s.DigestsEqual {
			fail(w.Name, "report_digests_equal", "false: the two sides printed different reports")
		}
		for _, d := range m.EndToEnd {
			c, ok := s.Cells[d.Name]
			switch {
			case !ok:
				fail(w.Name, d.Name, "metric missing from the summary")
			case c.Pairs < 10:
				fail(w.Name, d.Name, "%d pairs, want at least 10", c.Pairs)
			case d.worseBy(c) > d.Bound:
				fail(w.Name, d.Name, "change median %v is %.1f%% worse than parent median %v, bound %.0f%%",
					c.Change.Median, 100*d.worseBy(c), c.Parent.Median, 100*d.Bound)
			}
		}
	}
	// A traced line is a per-layer reading: every name in it is one the
	// manifest declares (which is where its unit and direction live).
	layer := make(map[string]bool)
	for _, decls := range [][]metricDecl{m.EndToEnd, m.PerLayer} {
		for _, d := range decls {
			layer[d.Name] = true
		}
	}
	for workload, sides := range e.Traced {
		for side, metrics := range sides {
			for name := range metrics {
				if !declared[workload] || !layer[name] {
					fail(workload, name, "traced %s line names what BENCHMARK.json does not declare", side)
				}
			}
		}
	}
	if e.Claim == nil {
		return bad
	}
	var decl *metricDecl
	for i := range m.EndToEnd {
		if m.EndToEnd[i].Name == e.Claim.Metric {
			decl = &m.EndToEnd[i]
		}
	}
	c, ok := e.Summary[e.Claim.Workload].Cells[e.Claim.Metric]
	if decl == nil || !ok {
		fail(e.Claim.Workload, e.Claim.Metric, "claimed, but not an end-to-end metric of the summary")
		return bad
	}
	// Nine tenths of the pairs run, ties counting for neither side.
	if wins := decl.wins(c); 10*wins < 9*c.Pairs {
		fail(e.Claim.Workload, e.Claim.Metric, "claimed, but the change won %d of %d pairs, want at least 9 in 10", wins, c.Pairs)
	}
	gap, spread := -decl.worseBy(c)*c.Parent.Median, c.Parent.Q3-c.Parent.Q1
	if !(gap > spread) {
		fail(e.Claim.Workload, e.Claim.Metric, "claimed, but the medians differ by %v, inside the parent's interquartile spread %v", gap, spread)
	}
	return bad
}

// loadLedger reads BENCHMARK.json and BENCH.ndjson; lines keeps each
// entry's own octets so that a test can doctor a copy.
func loadLedger(t *testing.T) (m manifest, entries []entry, lines [][]byte) {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	raw, err = os.ReadFile("BENCH.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	lines = bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("BENCH.ndjson line %d: %v", i+1, err)
		}
		entries = append(entries, e)
	}
	return m, entries, lines
}

// TestLedger holds every committed entry to the acceptance rule.
func TestLedger(t *testing.T) {
	m, entries, _ := loadLedger(t)
	if len(m.Workloads) == 0 || len(m.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}
	if len(entries) == 0 {
		t.Fatal("BENCH.ndjson is empty")
	}
	for _, line := range checkLedger(m, entries) {
		t.Error(line)
	}
}

// TestLedgerCanFail puts a copy of PR 22's entry, doctored one way at a
// time, at the end of the ledger as it stood when that entry was the
// newest, and requires the check to name what was done to it. The entry
// claims throughput_ops_s on authd_hot, where the parent's median is
// 228,764 and its quartiles are 11,241 apart.
func TestLedgerCanFail(t *testing.T) {
	m, entries, lines := loadLedger(t)
	at := slices.IndexFunc(entries, func(e entry) bool { return e.PR == 22 })
	if at < 0 {
		t.Fatal("BENCH.ndjson has no pr 22 entry")
	}
	newest, entries := lines[at], entries[:at+1]
	// scale sets the change's median to by × the parent's.
	scale := func(workload, metric string, by float64) func(*entry) {
		return func(e *entry) {
			c := e.Summary[workload].Cells[metric]
			c.Change.Median = c.Parent.Median * by
			e.Summary[workload].Cells[metric] = c
		}
	}
	for _, tc := range []struct {
		name   string
		doctor func(*entry)
		want   []string // every violation reported, by the text it must contain
	}{
		{"untouched", func(*entry) {}, nil},
		{"no claim", func(e *entry) { e.Claim = nil }, nil},
		{"throughput 30% worse, bound 25%", scale("survey_sharded", "throughput_ops_s", 0.70),
			[]string{"pr 22: survey_sharded × throughput_ops_s: change median"}},
		{"throughput 24% worse, bound 25%", scale("survey_sharded", "throughput_ops_s", 0.76), nil},
		{"allocs 6% worse, bound 5%", scale("resolverstudy", "allocs_per_op", 1.06),
			[]string{"pr 22: resolverstudy × allocs_per_op: change median"}},
		{"allocs 4% worse, bound 5%", scale("resolverstudy", "allocs_per_op", 1.04), nil},
		{"claim won 8 of 10", func(e *entry) {
			c := e.Summary["authd_hot"].Cells["throughput_ops_s"]
			c.ChangeHigherIn, c.ChangeLowerIn = 8, 2
			e.Summary["authd_hot"].Cells["throughput_ops_s"] = c
		}, []string{"pr 22: authd_hot × throughput_ops_s: claimed, but the change won 8 of 10 pairs"}},
		{"claim won 9 of 10", func(e *entry) {
			c := e.Summary["authd_hot"].Cells["throughput_ops_s"]
			c.ChangeHigherIn, c.ChangeLowerIn = 9, 1
			e.Summary["authd_hot"].Cells["throughput_ops_s"] = c
		}, nil},
		// +4 % of the parent's median is 9,151.
		{"claim's gap inside the parent's quartiles", scale("authd_hot", "throughput_ops_s", 1.04),
			[]string{"pr 22: authd_hot × throughput_ops_s: claimed, but the medians differ by"}},
		{"claim on a metric that got worse", func(e *entry) { e.Claim.Workload = "authd_unique" },
			[]string{"pr 22: authd_unique × throughput_ops_s: claimed, but the change won 3 of 10", "pr 22: authd_unique × throughput_ops_s: claimed, but the medians differ by"}},
		{"claim on a per-layer line", func(e *entry) { e.Claim.Metric = "netsim.udp_qps" },
			[]string{"pr 22: authd_hot × netsim.udp_qps: claimed, but not an end-to-end metric"}},
		{"unknown workload", func(e *entry) { e.Summary["authd_cold"] = e.Summary["authd_hot"] },
			[]string{"pr 22: authd_cold × *: workload is not in BENCHMARK.json"}},
		{"missing workload", func(e *entry) { delete(e.Summary, "survey_oneworld") },
			[]string{"pr 22: survey_oneworld × *: workload missing"}},
		{"missing metric", func(e *entry) { delete(e.Summary["authd_unique"].Cells, "peak_rss_mb") },
			[]string{"pr 22: authd_unique × peak_rss_mb: metric missing"}},
		{"nine pairs", func(e *entry) {
			c := e.Summary["authd_unique"].Cells["setup_s"]
			c.Pairs = 9
			e.Summary["authd_unique"].Cells["setup_s"] = c
		}, []string{"pr 22: authd_unique × setup_s: 9 pairs"}},
		{"incorrect", func(e *entry) {
			s := e.Summary["resolverstudy"]
			s.Correct = false
			e.Summary["resolverstudy"] = s
		}, []string{"pr 22: resolverstudy × correct: false"}},
		{"more failures", func(e *entry) {
			s := e.Summary["authd_hot"]
			s.Failed.Change = 3
			e.Summary["authd_hot"] = s
		}, []string{"pr 22: authd_hot × failed: 3 failed operations on the change, 0 on the parent"}},
		{"another report", func(e *entry) {
			s, no := e.Summary["survey_sharded"], false
			s.DigestsEqual = &no
			e.Summary["survey_sharded"] = s
		}, []string{"pr 22: survey_sharded × report_digests_equal: false"}},
		{"undeclared traced line", func(e *entry) { e.Traced["authd_hot"]["change"]["authserver.memo_ns"] = 1 },
			[]string{"pr 22: authd_hot × authserver.memo_ns: traced change line"}},
		{"out of order", func(e *entry) { e.PR = 21 },
			[]string{"pr 21: follows pr 21"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var doctored entry
			if err := json.Unmarshal(newest, &doctored); err != nil {
				t.Fatal(err)
			}
			tc.doctor(&doctored)
			earlier := entries[: len(entries)-1 : len(entries)-1]
			got := checkLedger(m, append(earlier, doctored))
			if len(got) != len(tc.want) {
				t.Fatalf("got %d violations, want %d:\n%s", len(got), len(tc.want), strings.Join(got, "\n"))
			}
			for i, want := range tc.want {
				if !strings.Contains(got[i], want) {
					t.Errorf("violation %d = %q, want it to contain %q", i, got[i], want)
				}
			}
		})
	}
}

// citingDocs are the documents whose ledger citations must name a line
// of BENCH.ndjson; namingDocs those whose test names must name a test.
// ROADMAP.md names tests still to be written, and CHANGES.md tests since
// deleted, so neither is held to the second rule.
var (
	citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "bench/README.md"}
	namingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"}
)

var (
	// ledgerCitation is the ledger's own key, lower case, as in
	// "`BENCH.ndjson` pr 21"; "PR 21" is a change's number, not a citation.
	ledgerCitation = regexp.MustCompile(`\bpr\s+(\d+)\b`)
	testName       = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testFunc       = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// checkCitations returns one line per citation in doc's text that names
// nothing: a "pr N" with no ledger line in prs and, when names is set, a
// test name that is neither a function in funcs nor a prefix of one
// (how `go test -run` reads a pattern).
func checkCitations(doc, text string, names bool, prs map[int]bool, funcs []string) []string {
	var bad []string
	line := func(off int) int { return 1 + strings.Count(text[:off], "\n") }
	for _, m := range ledgerCitation.FindAllStringSubmatchIndex(text, -1) {
		if n, err := strconv.Atoi(text[m[2]:m[3]]); err != nil || !prs[n] {
			bad = append(bad, fmt.Sprintf("%s:%d: %q names no BENCH.ndjson line", doc, line(m[0]), text[m[0]:m[1]]))
		}
	}
	if !names {
		return bad
	}
	for _, m := range testName.FindAllStringIndex(text, -1) {
		name := text[m[0]:m[1]]
		if !slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, name) }) {
			bad = append(bad, fmt.Sprintf("%s:%d: %s names no test function", doc, line(m[0]), name))
		}
	}
	return bad
}

// citationTargets returns the pr of every ledger line and the name of
// every Test, Benchmark and Fuzz function in the repository's test files
// (bench/ included; testdata and dot-directories are not Go tests).
func citationTargets(t *testing.T) (map[int]bool, []string) {
	t.Helper()
	_, entries, _ := loadLedger(t)
	prs := make(map[int]bool)
	for _, e := range entries {
		prs[e.PR] = true
	}
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return prs, funcs
}

// TestDocCitations holds the documents to what exists: every ledger
// citation names a line of BENCH.ndjson, and every test a document
// outside ROADMAP.md and CHANGES.md names is one `go test -run` finds.
func TestDocCitations(t *testing.T) {
	prs, funcs := citationTargets(t)
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range checkCitations(doc, string(text), slices.Contains(namingDocs, doc), prs, funcs) {
			t.Error(line)
		}
	}
}

// TestDocCitationsCanFail feeds the check a document with a doctored
// ledger citation and a doctored test name beside real ones, and
// requires it to name exactly the two doctored ones.
func TestDocCitationsCanFail(t *testing.T) {
	prs, funcs := citationTargets(t)
	if prs[16] || !prs[22] {
		t.Fatal("the ledger's lines moved: pr 16 must be absent and pr 22 present")
	}
	text := "Measured: `BENCH.ndjson` pr 22 and\npr 16; pinned by `TestLedger`,\n`TestMeasure` and `TestLedgerNoSuch`.\n"
	got := checkCitations("doc.md", text, true, prs, funcs)
	want := []string{
		`doc.md:2: "pr 16" names no BENCH.ndjson line`,
		`doc.md:3: TestLedgerNoSuch names no test function`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	if got := checkCitations("doc.md", text, false, prs, funcs); !slices.Equal(got, want[:1]) {
		t.Fatalf("without names: got %q, want %q", got, want[:1])
	}
}
