package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/netip"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/zone"
)

// parseDS reads an anchor the way run reads -anchor.
func parseDS(s string) (dnswire.DS, error) {
	rd, err := zone.ParseRData(dnswire.TypeDS, s, dnswire.Root)
	if err != nil {
		return dnswire.DS{}, err
	}
	return rd.(dnswire.DS), nil
}

func TestParseDS(t *testing.T) {
	ds, err := parseDS("12345 13 2 49FD46E6C4B45C55D4AC69CBD3CD34AC1AFE51DE52FE34EF3C5CF9E04F3C5CF9")
	if err != nil {
		t.Fatal(err)
	}
	if ds.KeyTag != 12345 || uint8(ds.Algorithm) != 13 || uint8(ds.DigestType) != 2 {
		t.Fatalf("ds = %+v", ds)
	}
	if len(ds.Digest) != 32 {
		t.Fatalf("digest %d bytes", len(ds.Digest))
	}
	if ds, err := parseDS("65535 255 255 49FD"); err != nil || ds.KeyTag != 65535 || ds.Algorithm != 255 || ds.DigestType != 255 {
		t.Errorf("parseDS at the fields' upper bounds = %+v, %v", ds, err)
	}
	// The digest may be split by whitespace (RFC 4034 §5.3).
	if ds, err := parseDS("1 13 2 49FD 46E6"); err != nil || !bytes.Equal(ds.Digest, []byte{0x49, 0xfd, 0x46, 0xe6}) {
		t.Errorf("parseDS with a split digest = %+v, %v; want digest 49FD46E6", ds, err)
	}
	for _, bad := range []string{"", "1 2", "x y z w", "1 2 3 nothex!",
		"70000 13 2 49FD46E6", "-1 13 2 49FD46E6", "1 300 2 49FD46E6", "1 13 256 49FD46E6", "1 -13 2 49FD46E6",
		"1 13 2 49FDzz", "1 13 2 49FD46E6 junk"} {
		if _, err := parseDS(bad); err == nil {
			t.Errorf("parseDS(%q) accepted", bad)
		}
		if bad == "" {
			continue // an empty -anchor turns validation off
		}
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-root", "127.0.0.1:1", "-anchor", bad}, &stdout, &stderr); code != 1 ||
			stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "resolved: bad -anchor") {
			t.Errorf("-anchor %q: exit %d, stdout %q, stderr %q; want 1, nothing served, the reason", bad, code, stdout.String(), stderr.String())
		}
	}
}

// TestRunExitStatus: -h exits 0, a flag that does not parse 2, and a
// configuration that cannot serve 1 — all without listening.
func TestRunExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{nil, 1},
		{[]string{"-root", "not-an-address"}, 1},
		{[]string{"-root", "127.0.0.1:1", "-profile", "no-such-vendor"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), c.args, &stdout, &stderr); code != c.want || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want %d and nothing printed", c.args, code, stdout.String(), c.want)
		}
	}
}

// output is a stdout that run's goroutine and the test share.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// TestRunValidates: resolved on loopback, anchored at the DS of a root
// zone served on loopback, answers a DO query for the root's
// NSEC3PARAM with AD set, counts it on /metrics, and returns 0 once its
// context is done.
func TestRunValidates(t *testing.T) {
	z, err := zone.ParseMaster(strings.NewReader(`$ORIGIN .
@	3600	IN	SOA	a.root-servers.net. nstld.verisign-grs.com. 1 1800 900 604800 86400
@	3600	IN	NS	a.root-servers.net.
a.root-servers.net.	IN	A	127.0.0.1
`), dnswire.Root, 300)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	cfg := zone.SignConfig{Inception: uint32(now.Add(-time.Hour).Unix()), Expiration: uint32(now.Add(time.Hour).Unix())}
	if err := cfg.UseNSEC3(5, "aabbccdd", false); err != nil {
		t.Fatal(err)
	}
	signed, err := z.Sign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := signed.DSForChild()
	auth := authserver.New()
	auth.AddZone(signed)
	root := &netsim.Server{Handler: auth}
	rootAddr, err := root.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr output
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-root", rootAddr.String(), "-anchor", ds.String(), "-metrics", "127.0.0.1:0"}, &stdout, &stderr)
	}()
	rx := regexp.MustCompile(`resolved: bind9-2021 \(.*\) listening on (\S+), root \S+, validation=true\n`)
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if m := rx.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("never listened with validation on:\n%s%s", stdout.String(), stderr.String())
		}
	}

	resp, err := (&netsim.UDPExchanger{}).Exchange(ctx, netip.MustParseAddrPort(addr), dnswire.NewQuery(1, dnswire.Root, dnswire.TypeNSEC3PARAM, true))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.AuthenticatedData || len(resp.Answers) == 0 {
		t.Errorf("NSEC3PARAM through resolved: rcode %v, AD %v, %d answers; want a validated answer",
			resp.Header.RCode, resp.Header.AuthenticatedData, len(resp.Answers))
	}
	url := regexp.MustCompile(`resolved: metrics on (\S+)\n`).FindStringSubmatch(stdout.String())
	if url == nil {
		t.Fatalf("no metrics address printed:\n%s", stdout.String())
	}
	m, err := http.Get(url[1])
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(m.Body)
	m.Body.Close()
	if err != nil || !regexp.MustCompile(`(?m)^resolved_queries_total 1$`).Match(body) {
		t.Errorf("/metrics (%v) has no line resolved_queries_total 1:\n%s", err, body)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
}
