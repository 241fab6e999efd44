package main

import (
	"bytes"
	"os"
	"testing"
)

const goldenPath = "testdata/output.golden"

// TestRunOutput holds the demo's whole output to a golden: every
// profile's RCODE, AD and EDE line per probe, its classification and
// the query log's source count. CORE_WRITE_GOLDEN=1 rewrites it.
func TestRunOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("CORE_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden missing (CORE_WRITE_GOLDEN=1 writes it): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got\n%s\n--- want\n%s", goldenPath, out.Bytes(), want)
	}
}
