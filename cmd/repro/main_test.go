package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// allGolden is the committed stdout of
// `repro -all -resolver-scale 400 -seed 1`.
const allGolden = "testdata/all-resolver400-seed1.golden"

// TestAllReportPinned runs every experiment through run at the scale
// EXPERIMENTS.md quotes and compares its stdout with allGolden octet
// for octet, so a change that moves one printed line of any table or
// figure fails here and names the line. CORE_WRITE_GOLDEN=1 rewrites
// the file first, as it does internal/core's goldens: a deliberate act
// whose diff is the review.
func TestAllReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-all", "-resolver-scale", "400", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if os.Getenv("CORE_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(allGolden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(allGolden)
	if err != nil {
		t.Fatalf("committed report missing (CORE_WRITE_GOLDEN=1 writes it): %v", err)
	}
	if got := stdout.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stdout differs from %s at line %d:\n got  %s\n want %s", allGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout differs from %s: %d lines, want %d", allGolden, len(gl), len(wl))
	}
}

// TestRunRefusesUnknownFlag: a flag that does not parse exits 2 before
// any experiment runs.
func TestRunRefusesUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Fatalf("exit %d with stdout %q, want 2 and nothing printed", code, stdout.String())
	}
}

// TestRunServeRefusedAnnouncesNothing: a coordinator whose
// configuration is refused (-resume with no -state-dir to resume from)
// exits non-zero without printing the "coordinating on" line a script
// reads to start its workers.
func TestRunServeRefusedAnnouncesNothing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-serve", "127.0.0.1:0", "-resume"}, &stdout, &stderr)
	if code == 0 || strings.Contains(stderr.String(), "coordinating on") {
		t.Fatalf("exit %d, stderr %q: want a non-zero exit and no announced address", code, stderr.String())
	}
}
