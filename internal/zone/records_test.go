package zone

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// TestAllRecordsSequence pins the AXFR stream: the (owner, type,
// covered type) sequence AllRecords emits for an NSEC3 zone, an
// opt-out zone and an NSEC zone, against a golden written from the
// code before the NSEC3 RRSIGs moved out of the per-owner signature
// maps. Owner names and order depend on the zone and the hash
// parameters only, never on the keys, so the golden is stable.
// Regenerate (deliberately) with ZONE_WRITE_GOLDEN=1.
func TestAllRecordsSequence(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  SignConfig
	}{
		{"nsec3", SignConfig{Denial: DenialNSEC3, NSEC3: nsec3.Params{Iterations: 1, Salt: []byte{0xAB, 0xCD}}}},
		{"nsec3-opt-out", SignConfig{Denial: DenialNSEC3, OptOut: true}},
		{"nsec", SignConfig{Denial: DenialNSEC}},
	} {
		s := signTestZone(t, c.cfg)
		fmt.Fprintf(&b, "== %s ==\n", c.name)
		var nsec3s, nsec3Sigs int
		for _, rr := range s.MustAllRecords(t) {
			fmt.Fprintf(&b, "%s %s", rr.Name, rr.Type())
			if sig, ok := rr.Data.(dnswire.RRSIG); ok {
				fmt.Fprintf(&b, " %s", sig.TypeCovered)
				if sig.TypeCovered == dnswire.TypeNSEC3 {
					nsec3Sigs++
				}
			}
			if rr.Type() == dnswire.TypeNSEC3 {
				nsec3s++
			}
			b.WriteByte('\n')
		}
		// The golden aside: a transfer that drops the denial chain's
		// signatures serves a zone no validator accepts.
		if nsec3s != nsec3Sigs || (c.cfg.Denial == DenialNSEC3 && nsec3s == 0) {
			t.Errorf("%s: %d NSEC3 records, %d RRSIGs covering NSEC3", c.name, nsec3s, nsec3Sigs)
		}
	}
	golden := filepath.Join("testdata", "allrecords.golden")
	if os.Getenv("ZONE_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("AllRecords sequence differs from %s at line %d:\n got  %q\n want %q", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("AllRecords sequence differs from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
