package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netsim"
)

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

// serving is one authd run serving in a goroutine until stop.
type serving struct {
	stdout, stderr output
	stop           context.CancelFunc
	done           chan struct{}
	code           int
}

// serve starts run(ctx, args, …) and returns once it listens.
func serve(t *testing.T, args ...string) *serving {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &serving{stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.code = run(ctx, args, &s.stdout, &s.stderr)
	}()
	t.Cleanup(func() {
		cancel()
		<-s.done
	})
	s.await(t, `authd: listening on (\S+) \(udp\+tcp\)\n`)
	return s
}

// await waits for re to match stdout and returns its first submatch.
func (s *serving) await(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.After(60 * time.Second)
	for {
		if m := rx.FindStringSubmatch(s.stdout.String()); m != nil {
			return m[1]
		}
		select {
		case <-s.done:
			t.Fatalf("exit %d before printing %q: %s", s.code, re, s.stderr.String())
		case <-deadline:
			t.Fatalf("never printed %q:\n%s", re, s.stdout.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// shutdown cancels run's context and returns its exit status.
func (s *serving) shutdown(t *testing.T) int {
	t.Helper()
	s.stop()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if want := "authd: shutting down\n"; !bytes.HasSuffix([]byte(s.stdout.String()), []byte(want)) {
		t.Errorf("stdout does not end with %q:\n%s", want, s.stdout.String())
	}
	return s.code
}

func ask(t *testing.T, addr string, name dnswire.Name, qt dnswire.Type) *dnswire.Message {
	t.Helper()
	resp, err := (&netsim.UDPExchanger{}).Exchange(context.Background(), netip.MustParseAddrPort(addr),
		dnswire.NewQuery(1, name, qt, true))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d, %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// TestRunTestbedMetrics: -testbed serves the rfc9276 testbed's zones on
// the socket it announces, and -metrics reports them on /metrics next
// to the server's own query counter, with /healthz answering ok.
func TestRunTestbedMetrics(t *testing.T) {
	s := serve(t, "-testbed", "-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0")
	zones := s.await(t, `authd: serving the rfc9276 testbed \((\d+) zones\)\n`)
	base := s.await(t, `authd: metrics on (http://\S+)/metrics\n`)
	addr := s.await(t, `authd: listening on (\S+) \(udp\+tcp\)\n`)

	resp := ask(t, addr, dnswire.MustParseName("www.rfc9276-in-the-wild.com"), dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative || len(resp.Answers) == 0 {
		t.Errorf("www A: rcode %v, AA %v, %d answers", resp.Header.RCode, resp.Header.Authoritative, len(resp.Answers))
	}
	if got := get(t, base+"/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q, want ok", got)
	}
	m := get(t, base+"/metrics")
	for _, re := range []string{`authd_zones ` + zones, `authserver_queries_total 1`} {
		if !regexp.MustCompile(`(?m)^` + re + `$`).MatchString(m) {
			t.Errorf("/metrics has no line %q:\n%s", re, m)
		}
	}
	if code := s.shutdown(t); code != 0 {
		t.Fatalf("exit %d: %s", code, s.stderr.String())
	}
}

// TestRunZone: -zone signs a master file with the NSEC3 parameters
// given, serves it, and prints the DS record a parent (or a validator's
// trust anchor) needs.
func TestRunZone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "root.zone")
	if err := os.WriteFile(path, []byte(`$ORIGIN .
$TTL 300
@	3600	IN	SOA	a.root-servers.net. nstld.verisign-grs.com. 1 1800 900 604800 86400
@	3600	IN	NS	a.root-servers.net.
a.root-servers.net.	IN	A	127.0.0.1
`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := serve(t, "-listen", "127.0.0.1:0", "-zone", ".="+path, "-iterations", "5", "-salt", "aabbccdd")
	s.await(t, `authd: serving \. \(NSEC3\), DS for the parent: (\d+ 13 2 [0-9A-F]{64})\n`)
	addr := s.await(t, `authd: listening on (\S+) \(udp\+tcp\)\n`)

	resp := ask(t, addr, dnswire.Root, dnswire.TypeNSEC3PARAM)
	if len(resp.Answers) == 0 {
		t.Fatalf("no NSEC3PARAM answer: rcode %v", resp.Header.RCode)
	}
	p, ok := resp.Answers[0].Data.(dnswire.NSEC3PARAM)
	if !ok || p.Iterations != 5 || !bytes.Equal(p.Salt, []byte{0xaa, 0xbb, 0xcc, 0xdd}) {
		t.Errorf("NSEC3PARAM = %v, want 5 iterations and salt aabbccdd", resp.Answers[0].Data)
	}
	if code := s.shutdown(t); code != 0 {
		t.Fatalf("exit %d: %s", code, s.stderr.String())
	}
}

// TestRunExitStatus: -h exits 0, a flag that does not parse 2, and a
// configuration that cannot serve 1 with the reason on stderr — all
// without listening.
func TestRunExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-iterations", "x"}, 2},
		{nil, 1},
		{[]string{"-zone", "no-equals-sign"}, 1},
		{[]string{"-zone", ".=" + filepath.Join(t.TempDir(), "missing")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), c.args, &stdout, &stderr); code != c.want || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want %d and nothing printed", c.args, code, stdout.String(), c.want)
		}
		if c.want == 1 && !bytes.HasPrefix(stderr.Bytes(), []byte("authd: ")) {
			t.Errorf("run(%q): stderr %q, want the reason", c.args, stderr.String())
		}
	}
}
