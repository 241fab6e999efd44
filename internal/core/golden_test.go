package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSeeds are the seeds the committed reports are pinned at.
var goldenSeeds = []uint64{1, 7}

// checkGolden compares report, as indented JSON followed by its
// rendered figures and tables (what the JSON does not carry, such as a
// CDF's points), with the committed testdata/<name>.golden and names
// the first line that differs, so a moved report says what moved.
// CORE_WRITE_GOLDEN=1 rewrites the file first — a deliberate act, done
// on a commit whose science is the reference.
func checkGolden(t *testing.T, name string, report any, rendered string) {
	t.Helper()
	got := goldenText(t, report, rendered)
	path := filepath.Join("testdata", name+".golden")
	if os.Getenv("CORE_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("committed report missing (CORE_WRITE_GOLDEN=1 writes it): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("report differs from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("report differs from %s: %d lines, want %d", path, len(gl), len(wl))
}

// goldenText is the committed form of a report: indented JSON, a
// newline, then its rendering.
func goldenText(t *testing.T, report any, rendered string) string {
	t.Helper()
	raw, err := json.MarshalIndent(report, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return string(raw) + "\n" + rendered
}
