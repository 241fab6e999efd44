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

// TestRunCleanCtxPropTargets pins the interprocedural fixes on the real
// tree: the packages rewired to thread context (atlas's probe path into
// testbed/netsim/authserver, and respop) plus the distributed-survey
// wire path (distsurvey's codec, coordinator, and worker loops) and the
// statewalk differential runner (cells on fanout.Each, ctx checked
// before each cell) stay clean under the full suite, call graph included, as do
// the resolver-study plan/execute/merge layers (core's shard runners
// and report builders, analysis and compliance merge methods). A
// regression that drops a ctx parameter, reintroduces
// context.Background() in library code, un-guards the frame codec's
// length word, or makes a Merge method impure fails here.
func TestRunCleanCtxPropTargets(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"../../internal/atlas", "../../internal/respop",
		"../../internal/netsim", "../../internal/authserver",
		"../../internal/testbed", "../../internal/distsurvey",
		"../../internal/statewalk", "../../internal/core",
		"../../internal/analysis", "../../internal/compliance",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
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
