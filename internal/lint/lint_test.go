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
// markers through the same harness CI's self-check runs, so a fixture
// that fails here fails `reprolint -selfcheck` identically — and then
// against the committed full diagnostic text, one "# <case>" block per
// golden case. LINT_WRITE_GOLDEN=1 regenerates that file after a
// deliberate change; its diff is the review artefact.
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
		} else {
			want[block] += line
		}
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
			if got := goldenDiagnostics(t, gc); got != want[name] {
				t.Errorf("diagnostics differ from %s (LINT_WRITE_GOLDEN=1 regenerates)\n--- got\n%s--- want\n%s", diagnosticsGolden, got, want[name])
			}
		})
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

// TestAllocOKWaiverSemantics pins the hotpathalloc waiver contract:
// bare directives in both directions are findings, a reasoned waiver
// absorbs (the waived callee's allocation sites stay silent even on a
// hot chain), a contradiction of root and waiver on one declaration
// reports, and a waiver that silences nothing is itself a finding.
func TestAllocOKWaiverSemantics(t *testing.T) {
	diags, err := lint.RunFixture("testdata", goldenCase(t, "hotpathalloc"))
	if err != nil {
		t.Fatal(err)
	}
	var bareRoot, bareWaiver, contradiction, stale bool
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, lint.HotPathDirective+" directive without a reason"):
			bareRoot = true
		case strings.Contains(d.Message, lint.AllocOKDirective+" directive without a reason"):
			bareWaiver = true
		case strings.Contains(d.Message, "contradict each other"):
			contradiction = true
		case strings.Contains(d.Message, "waives nothing"):
			stale = true
			if !strings.Contains(d.Message, "hotfix.Idle") {
				t.Errorf("stale-waiver finding names the wrong function: %s", d)
			}
		}
		if strings.Contains(d.Message, "hotfix.fill") {
			t.Errorf("waiver failed to absorb the waived callee's allocation: %s", d)
		}
	}
	if !bareRoot {
		t.Errorf("bare %s directive was not reported", lint.HotPathDirective)
	}
	if !bareWaiver {
		t.Errorf("bare %s directive was not reported", lint.AllocOKDirective)
	}
	if !contradiction {
		t.Errorf("contradictory root+waiver declaration was not reported")
	}
	if !stale {
		t.Errorf("stale %s waiver was not reported", lint.AllocOKDirective)
	}
}

// TestBufAliasWaiverSkips pins that a reasoned //repro:allocok on a
// function silences bufalias for that whole function — Trusted returns
// a parameter subslice by documented contract and must stay quiet.
func TestBufAliasWaiverSkips(t *testing.T) {
	diags, err := lint.RunFixture("testdata", goldenCase(t, "bufalias"))
	if err != nil {
		t.Fatal(err)
	}
	// Trusted returns b[:n] exactly like Window does; if the waiver were
	// ignored the fixture would report one more subslice-return finding
	// than its 9 marked violations.
	if len(diags) != 9 {
		t.Errorf("got %d findings, want exactly the 9 marked violations — the %s waiver on Trusted may not be honored",
			len(diags), lint.AllocOKDirective)
	}
}

// TestPoolSafeDefiniteOnly pins poolsafe's conservatism: the
// disciplined twins — deferred Put, goroutine handoff, both-branch
// Put, per-iteration channel transfer — produce no findings.
func TestPoolSafeDefiniteOnly(t *testing.T) {
	diags, err := lint.RunFixture("testdata", goldenCase(t, "poolsafe"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 5 {
		t.Errorf("got %d findings, want exactly the 5 marked violations", len(diags))
	}
	for _, d := range diags {
		for _, clean := range []string{"DeferPut", "Handoff", "ErrPath", "LoopTransfer"} {
			if strings.Contains(d.Message, clean) {
				t.Errorf("disciplined twin %s reported: %s", clean, d)
			}
		}
	}
}

// TestSelfCheckReports exercises the CI entry point end to end: every
// fixture passes and carries its analyzer name and a timing.
func TestSelfCheckReports(t *testing.T) {
	reps, err := lint.SelfCheck("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(lint.GoldenCases()) {
		t.Fatalf("got %d reports, want %d", len(reps), len(lint.GoldenCases()))
	}
	covered := map[string]bool{}
	for _, r := range reps {
		covered[r.Analyzer] = true
	}
	for _, a := range lint.Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s ships without a golden fixture", a.Name)
		}
	}
	for _, r := range reps {
		if !r.OK() {
			t.Errorf("%s: missing=%v unexpected=%v", r.Analyzer, r.Missing, r.Unexpected)
		}
		if r.Analyzer == "" || r.Fixture == "" {
			t.Errorf("report lacks identity: %+v", r)
		}
		if r.Findings == 0 {
			t.Errorf("%s: fixture produced no findings at all — positive cases missing?", r.Analyzer)
		}
	}
}
