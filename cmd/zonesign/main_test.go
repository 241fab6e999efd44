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
	return signWith(t, append([]string{"-nsec3"}, extra...)...)
}

// signWith runs zonesign over testZone with fixed -inception and
// -expiration and extra, returning the exit status, stdout and stderr.
func signWith(t *testing.T, extra ...string) (int, string, string) {
	t.Helper()
	in := filepath.Join(t.TempDir(), "zone.db")
	if err := os.WriteFile(in, []byte(testZone), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-origin", "example.com.", "-in", in,
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

// TestRunOutputStable signs testZone's five records with NSEC, ten
// times: a map's iteration order matches the canonical one often
// enough that two signings alone would miss it. Each run makes fresh
// keys, so the public keys, key tags, signatures and DS digest differ;
// every other octet of the output must not, and the RRSIG section and
// NSEC chain must list owners in canonical order (RFC 4034 §6.1), each
// owner's types ascending.
func TestRunOutputStable(t *testing.T) {
	var outs [10]string
	for i := range outs {
		code, out, errOut := signWith(t)
		if code != 0 || errOut != "" {
			t.Fatalf("exit %d, stderr %q", code, errOut)
		}
		outs[i] = withoutKeys(out)
		if outs[i] != outs[0] {
			t.Fatalf("two signings differ beyond their keys:\n%s\n---\n%s", outs[0], outs[i])
		}
	}
	_, sigsAndChain, _ := strings.Cut(outs[0], "; RRSIGs\n")
	sigs, chain, ok := strings.Cut(sigsAndChain, "; NSEC chain\n")
	if !ok {
		t.Fatalf("no NSEC chain in\n%s", outs[0])
	}
	// inOrder checks the records of section, (owner, type) by its
	// field typeAt, ascending and none twice, and counts them.
	inOrder := func(section string, typeAt int) int {
		var prevName dnswire.Name
		var prevType dnswire.Type
		n := 0
		for _, line := range strings.Split(strings.TrimSpace(section), "\n") {
			f := strings.Fields(line)
			if len(f) <= typeAt || strings.HasPrefix(line, ";") {
				continue
			}
			name := dnswire.MustParseName(f[0])
			typ, err := dnswire.ParseType(f[typeAt])
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			if c := dnswire.CanonicalCompare(prevName, name); n > 0 && (c > 0 || c == 0 && prevType >= typ) {
				t.Errorf("%q after %s %s: not in canonical order", line, prevName, prevType)
			}
			prevName, prevType = name, typ
			n++
		}
		return n
	}
	if n := inOrder(sigs, 4); n < 8 {
		t.Errorf("%d RRSIGs, want one per RRset of the signed zone", n)
	}
	if n := inOrder(chain, 3); n != 3 {
		t.Errorf("%d NSEC records, want one per name (apex, ns1, www)", n)
	}
}

// withoutKeys blanks what a signing's fresh keys decide in zonesign's
// output: a DNSKEY's public key, an RRSIG's key tag and signature, and
// the DS comment.
func withoutKeys(out string) string {
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		switch {
		case len(f) > 7 && f[3] == "DNSKEY":
			lines[i] = strings.Join(f[:7], " ")
		case len(f) > 12 && f[3] == "RRSIG":
			lines[i] = strings.Join(append(f[:10:10], f[11]), " ")
		case strings.HasPrefix(line, "; ") && len(f) > 5 && f[4] == "DS":
			lines[i] = "; DS"
		}
	}
	return strings.Join(lines, "\n")
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
