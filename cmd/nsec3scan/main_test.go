package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/population"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/scanner"
)

// TestLineSourceSkipsAndEnds: blank lines, comments and names that do
// not parse are skipped; the end of the input ends the stream, and a
// call after the end stays ended.
func TestLineSourceSkipsAndEnds(t *testing.T) {
	in := "\n# comment\nexample.com\na..b\n" + strings.Repeat("x", 64) + ".test\n\nWWW.Example.Org.\n#last"
	src := &lineSource{sc: bufio.NewScanner(strings.NewReader(in)), warn: io.Discard}
	var got []dnswire.Name
	for {
		n, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, n)
	}
	want := []dnswire.Name{"example.com.", "www.example.org."}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %q, want %q", got, want)
	}
	if n, ok := src.Next(); ok {
		t.Fatalf("Next after the end returned %q", n)
	}
}

// TestLineSourceScansOnNetsim feeds a deployed world's domain list,
// with a comment and blank lines mixed in, through ScanAll on eight
// workers into the command's own sinks: every domain comes out once as
// an NDJSON line, none with an error, and the merged aggregate counts
// them all.
func TestLineSourceScansOnNetsim(t *testing.T) {
	u, err := population.Generate(population.Config{Registered: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.NewNetwork(9)
	dep, err := population.Deploy(u, net, 1709251200, 1717200000)
	if err != nil {
		t.Fatal(err)
	}
	net.Register(netsim.Addr4(1, 1, 1, 1), resolver.New(resolver.Config{
		Roots:           dep.Hierarchy.Roots,
		TrustAnchor:     dep.Hierarchy.TrustAnchor,
		Exchanger:       net,
		Policy:          respop.Cloudflare.Policy,
		Now:             func() uint32 { return 1712000000 },
		MaxCacheEntries: 1 << 16,
	}))
	var list strings.Builder
	list.WriteString("# domain list\n\n")
	for _, d := range u.Domains {
		list.WriteString(d.Name.String() + "\n")
	}
	src := &lineSource{sc: bufio.NewScanner(strings.NewReader(list.String())), warn: io.Discard}
	s := scanner.New(scanner.Config{
		Exchanger: net, Resolver: netsim.Addr4(1, 1, 1, 1), Workers: 8, Seed: 7,
	})
	defer s.Close()
	var out bytes.Buffer
	enc := scanner.NewEncoder(&out)
	var sinks []*resultSink
	if err := s.ScanAll(context.Background(), src, func(int) scanner.Sink {
		sink := &resultSink{enc: enc, agg: compliance.NewAggregate()}
		sinks = append(sinks, sink)
		return sink
	}); err != nil {
		t.Fatal(err)
	}
	agg := compliance.NewAggregate()
	for _, sink := range sinks {
		agg.Merge(sink.agg)
	}
	if agg.Total != len(u.Domains) {
		t.Fatalf("aggregate counts %d domains, want %d", agg.Total, len(u.Domains))
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var r struct {
			Domain string `json:"domain"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if r.Error != "" || seen[r.Domain] {
			t.Fatalf("%s: error %q, seen before %v", r.Domain, r.Error, seen[r.Domain])
		}
		seen[r.Domain] = true
	}
	for _, d := range u.Domains {
		if !seen[d.Name.String()] {
			t.Fatalf("%s never scanned", d.Name)
		}
	}
}

// TestRunRefusesBadFlags: fewer than one worker and a negative rate are
// refused before any input is read. The scanner would read them as its
// defaults, 32 workers and no limit.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-workers", "0"}, {"-workers", "-3"}, {"-qps", "-1"}} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), append(args, "-in", t.TempDir()+"/absent"), &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), args[0]+" "+args[1]+":") || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want 1 with the flag named on stderr", args, code, stderr.String(), stdout.String())
		}
	}
}

// TestRunUsageExitStatus: -h exits 0 and a flag that does not parse 2,
// before any domain is read.
func TestRunUsageExitStatus(t *testing.T) {
	for args, want := range map[string]int{"-no-such-flag": 2, "-h": 0} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{args}, &stdout, &stderr); code != want || stdout.Len() != 0 {
			t.Errorf("%s: exit %d with stdout %q, want %d and nothing printed", args, code, stdout.String(), want)
		}
	}
}
