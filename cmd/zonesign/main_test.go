package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

// testZone is a small unsigned zone: apex SOA and NS, the name
// server's address, and a name holding two RRsets.
const testZone = `$ORIGIN example.com.
@ 3600 IN SOA ns1.example.com. admin.example.com. 1 7200 3600 1209600 300
@ 3600 IN NS ns1.example.com.
ns1 3600 IN A 192.0.2.1
www 300 IN A 192.0.2.2
www 300 IN TXT "hello"
`

// signArgs runs zonesign over testZone with NSEC3 and extra, returning
// the exit status, stdout and stderr.
func signArgs(t *testing.T, extra ...string) (int, string, string) {
	t.Helper()
	in := filepath.Join(t.TempDir(), "zone.db")
	if err := os.WriteFile(in, []byte(testZone), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-origin", "example.com.", "-in", in, "-nsec3",
		"-inception", "1700000000", "-expiration", "1800000000"}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunSignsNSEC3 re-reads -nsec3 output: the zone data, which
// zone.ParseMaster parses, holds an NSEC3PARAM of zero iterations, and
// every RRset there or in the NSEC3 chain has an RRSIG naming its owner
// and type.
func TestRunSignsNSEC3(t *testing.T) {
	code, out, errOut := signArgs(t)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	data, sigsAndChain, ok := strings.Cut(out, "; RRSIGs\n")
	if !ok {
		t.Fatalf("no RRSIG section in\n%s", out)
	}
	z, err := zone.ParseMaster(strings.NewReader(data), dnswire.MustParseName("example.com."), 300)
	if err != nil {
		t.Fatalf("re-reading the zone data: %v", err)
	}
	type rrset struct{ owner, typ string }
	var sets []rrset
	params := 0
	for _, rr := range z.Records() {
		if p, ok := rr.Data.(dnswire.NSEC3PARAM); ok {
			params++
			if p.Iterations != 0 {
				t.Errorf("NSEC3PARAM iterations %d, want 0", p.Iterations)
			}
		}
		sets = append(sets, rrset{rr.Name.String(), rr.Type().String()})
	}
	if params != 1 {
		t.Errorf("%d NSEC3PARAM records, want 1", params)
	}
	signed := map[rrset]bool{}
	for _, line := range strings.Split(sigsAndChain, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 4 && f[3] == "RRSIG":
			signed[rrset{f[0], f[4]}] = true
		case len(f) > 4 && f[3] == "NSEC3":
			sets = append(sets, rrset{f[0], f[3]})
		}
	}
	for _, s := range sets {
		if !signed[s] {
			t.Errorf("%s %s has no RRSIG", s.owner, s.typ)
		}
	}
}

// TestRunWarnsOnIterations: signing with additional iterations works
// but prints the RFC 9276 warning.
func TestRunWarnsOnIterations(t *testing.T) {
	code, _, errOut := signArgs(t, "-iterations", "5")
	if code != 0 || !strings.Contains(errOut, "violates RFC 9276") {
		t.Fatalf("exit %d, stderr %q: want 0 and the RFC 9276 warning", code, errOut)
	}
}

// TestRunExitCodes: a missing -origin is refused, -h is not an error,
// and a flag that does not parse exits 2.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-in", "zone.db"}, 1},
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.want || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with stdout %q, want %d and nothing printed", tc.args, code, stdout.String(), tc.want)
		}
	}
}
