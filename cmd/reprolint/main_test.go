package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunJSONClean drives the real loader over a package that is clean
// on the final tree and pins the -json contract: exit 0 and a JSON
// array (empty, not null).
func TestRunJSONClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-json", "../../internal/nsec3"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d, stderr: %s", code, stderr.String())
	}
	var diags []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	if diags == nil {
		t.Fatal("clean run encoded as null, want []")
	}
	if len(diags) != 0 {
		t.Fatalf("expected no findings in internal/nsec3, got %v", diags)
	}
}

// TestRunFindingFails pins the other side of the gate: the exit status
// is all CI's lint leg reads, so a module with one known finding — a
// goroutine that can never finish — must exit 1 and show that finding
// both as text on stdout and as the one element of the -json array.
func TestRunFindingFails(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module leakfix\n\ngo 1.22\n",
		"leak.go": `package leakfix

func work() {}

// Spin starts a goroutine with no way out of its loop.
func Spin() {
	go func() {
		for {
			work()
		}
	}()
}
`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The module has no requirements; nothing may be fetched.
	t.Setenv("GOPROXY", "off")
	t.Setenv("GOTOOLCHAIN", "local")
	// run loads its patterns relative to the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	const want = "[goleak] unconditional loop in goroutine spawned at"
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), nil, &stdout, &stderr); code != 1 {
		t.Fatalf("run exited %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if lines := strings.Split(strings.TrimSpace(stdout.String()), "\n"); len(lines) != 1 ||
		!strings.Contains(lines[0], "leak.go:8:3: "+want) {
		t.Fatalf("text output = %q, want the one goleak finding at leak.go:8:3", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-json run exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 1 || diags[0].Analyzer != "goleak" || filepath.Base(diags[0].File) != "leak.go" ||
		diags[0].Line != 8 || !strings.HasPrefix("["+diags[0].Analyzer+"] "+diags[0].Message, want) {
		t.Fatalf("-json output = %+v, want the one goleak finding at leak.go:8", diags)
	}
}

// TestTreeIsClean runs the whole suite over the module, call graph
// included, and requires exit 0: the gate ci.sh's lint leg applies,
// held in tier-1 so that a finding fails the commit that adds it. The
// leg stays for its JSON report. Among what this holds: the ctx
// propagation of the distributed wire path, the statewalk runner and
// the study engines' plan/execute/merge layers, the frame codec's
// length guard, and pure Merge methods.
func TestTreeIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"../../..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("reprolint ./... exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestRunUsageExitStatus: -h exits 0 and a flag that does not parse 2,
// before any package is loaded.
func TestRunUsageExitStatus(t *testing.T) {
	for args, want := range map[string]int{"-no-such-flag": 2, "-h": 0} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{args}, &stdout, &stderr); code != want || stdout.Len() != 0 {
			t.Errorf("%s: exit %d with stdout %q, want %d and nothing printed", args, code, stdout.String(), want)
		}
	}
}
