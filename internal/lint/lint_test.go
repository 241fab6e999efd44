package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// goldenName is a golden case's subtest name and its heading in
// testdata/diagnostics.golden: the fixture root, qualified by the
// analyzer when several analyzers share the fixture.
func goldenName(gc lint.GoldenCase) string {
	shared := 0
	for _, other := range lint.GoldenCases() {
		if other.Root == gc.Root {
			shared++
		}
	}
	if shared > 1 {
		return gc.Root + "-" + gc.Analyzer.Name
	}
	return gc.Root
}

// goldenDiagnostics renders one golden case's diagnostics in full —
// each Diagnostic.String() with its path relative to testdata/ — the
// exact-output contract the `// want` prefix regexes cannot give: a
// chain that loses a hop or a message that changes wording shows up as
// a diff of this text.
func goldenDiagnostics(t *testing.T, gc lint.GoldenCase) string {
	t.Helper()
	diags, err := lint.RunFixture("testdata", gc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range diags {
		d.Pos.Filename = strings.TrimPrefix(filepath.ToSlash(d.Pos.Filename), "testdata/")
		b.WriteString(d.String() + "\n")
	}
	return b.String()
}

const diagnosticsGolden = "testdata/diagnostics.golden"

// TestGolden checks every analyzer's fixture against its `// want`
// markers and then against the committed full diagnostic text, one
// "# <case>" block per golden case; every block in the file belongs to
// a case. LINT_WRITE_GOLDEN=1 regenerates that file after a deliberate
// change; its diff is the review artefact.
func TestGolden(t *testing.T) {
	if os.Getenv("LINT_WRITE_GOLDEN") == "1" {
		var b strings.Builder
		for _, gc := range lint.GoldenCases() {
			b.WriteString("# " + goldenName(gc) + "\n" + goldenDiagnostics(t, gc))
		}
		if err := os.WriteFile(diagnosticsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(diagnosticsGolden)
	if err != nil {
		t.Fatalf("committed diagnostics missing (run with LINT_WRITE_GOLDEN=1 to generate): %v", err)
	}
	want := map[string]string{}
	var block string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if heading, ok := strings.CutPrefix(line, "# "); ok {
			block = strings.TrimSpace(heading)
			want[block] += ""
		} else {
			want[block] += line
		}
	}
	cases := map[string]bool{"": true}
	for _, gc := range lint.GoldenCases() {
		cases[goldenName(gc)] = true
	}
	for name := range want {
		if !cases[name] {
			t.Errorf("%s has a block %q that no golden case checks", diagnosticsGolden, "# "+name)
		}
	}
	if want[""] != "" {
		t.Errorf("%s has lines before its first heading: %q", diagnosticsGolden, want[""])
	}
	for _, gc := range lint.GoldenCases() {
		name := goldenName(gc)
		t.Run(name, func(t *testing.T) {
			rep, err := lint.CheckFixture("testdata", gc)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range rep.Missing {
				t.Errorf("missing diagnostic: %s", m)
			}
			for _, u := range rep.Unexpected {
				t.Errorf("unexpected diagnostic: %s", u)
			}
			got := goldenDiagnostics(t, gc)
			if got != want[name] {
				t.Errorf("diagnostics differ from %s (LINT_WRITE_GOLDEN=1 regenerates)\n--- got\n%s--- want\n%s", diagnosticsGolden, got, want[name])
			}
		})
	}
}

// TestSelfCheckReports checks the suite as a whole: every analyzer in
// Analyzers() ships a golden case, and every case's fixture yields at
// least one finding, so no analyzer passes TestGolden by reporting
// nothing.
func TestSelfCheckReports(t *testing.T) {
	covered := map[*lint.Analyzer]bool{}
	for _, gc := range lint.GoldenCases() {
		covered[gc.Analyzer] = true
		diags, err := lint.RunFixture("testdata", gc)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) == 0 {
			t.Errorf("%s: fixture produced no findings at all — positive cases missing?", goldenName(gc))
		}
	}
	for _, a := range lint.Analyzers() {
		if !covered[a] {
			t.Errorf("analyzer %s ships without a golden fixture", a.Name)
		}
	}
}

// goldenCase fetches one analyzer's fixture from the registry.
func goldenCase(t *testing.T, name string) lint.GoldenCase {
	t.Helper()
	for _, gc := range lint.GoldenCases() {
		if gc.Analyzer.Name == name {
			return gc
		}
	}
	t.Fatalf("no golden case for analyzer %q", name)
	return lint.GoldenCase{}
}

// TestCtxExemptWaiverSemantics pins the ctxprop waiver contract beyond
// the want markers: a bare directive is itself a finding, and a waiver
// with a reason absorbs — no diagnostic lands on the waived function
// or on its caller.
func TestCtxExemptWaiverSemantics(t *testing.T) {
	diags, err := lint.RunFixture("testdata", goldenCase(t, "ctxprop"))
	if err != nil {
		t.Fatal(err)
	}
	var bare bool
	for _, d := range diags {
		if strings.Contains(d.Message, lint.CtxExemptDirective+" directive without a reason") {
			bare = true
		}
		if strings.Contains(d.Message, "DeadlineRead") || strings.Contains(d.Message, "UseWaived") {
			t.Errorf("waiver failed to absorb: %s", d)
		}
	}
	if !bare {
		t.Errorf("bare %s directive was not reported", lint.CtxExemptDirective)
	}
}

// TestWireTrustedPropagatesTaint pins the wiretaint waiver contract:
// the waived function's own sinks are silent, but taint still flows
// through it — the unwaived helper it calls reports, with the waived
// function in the chain. A waiver must never launder attacker bytes
// for the rest of the call tree.
func TestWireTrustedPropagatesTaint(t *testing.T) {
	diags, err := lint.RunFixture("testdata", goldenCase(t, "wiretaint"))
	if err != nil {
		t.Fatal(err)
	}
	var throughWaived bool
	for _, d := range diags {
		if strings.Contains(d.Message, "wire.Trusted → wire.allocT") {
			throughWaived = true
		}
		if strings.Contains(d.Message, "directive without a reason") {
			continue // the hygiene finding on BareWire names no sink
		}
		if strings.HasSuffix(d.Message, "wire.Trusted") {
			t.Errorf("sink inside the waived function was reported: %s", d)
		}
	}
	if !throughWaived {
		t.Errorf("taint did not propagate through the waived function to wire.allocT")
	}
}
