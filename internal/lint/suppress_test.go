package lint_test

import (
	"encoding/json"
	"go/token"
	"reflect"
	"testing"

	"repro/internal/lint"
)

// TestJSONShape pins the -json wire format: an array (never null) of
// objects with exactly the analyzer/file/line/column/message keys.
func TestJSONShape(t *testing.T) {
	empty, err := json.Marshal(lint.ToJSON(nil))
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != "[]" {
		t.Errorf("empty diagnostics encode as %s, want []", empty)
	}

	out, err := json.Marshal(lint.ToJSON([]lint.Diagnostic{{
		Analyzer: "wiresafety",
		Pos:      token.Position{Filename: "internal/dnswire/rdata.go", Line: 10, Column: 3},
		Message:  "unguarded index",
	}}))
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d entries, want 1", len(decoded))
	}
	want := map[string]any{
		"analyzer": "wiresafety",
		"file":     "internal/dnswire/rdata.go",
		"line":     float64(10),
		"column":   float64(3),
		"message":  "unguarded index",
	}
	if !reflect.DeepEqual(decoded[0], want) {
		t.Errorf("JSON entry = %v, want %v", decoded[0], want)
	}
}
