// Command nsec3scan is the zdns-style bulk scanner of §4.1 over real
// sockets: it reads domain names (one per line) from a file or stdin,
// scans each through a recursive resolver (DNSKEY, NSEC3PARAM, NS,
// random-subdomain probe), and emits one NDJSON result per domain plus
// a final RFC 9276 compliance summary on stderr. The input streams —
// domains feed the worker pool as they are read, so arbitrarily large
// lists run in constant memory.
//
//	nsec3scan -resolver 1.1.1.1:53 -workers 64 -qps 100 < domains.txt
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"

	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/scanner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nsec3scan:", err)
		os.Exit(1)
	}
}

// lineSource streams domain names off a reader one line at a time —
// scanner.ScanAll pulls from it as workers free up, so the domain list
// is never materialized.
type lineSource struct {
	sc *bufio.Scanner
}

// Next implements scanner.Source; ScanAll never calls it concurrently.
func (l *lineSource) Next() (dnswire.Name, bool) {
	for l.sc.Scan() {
		line := l.sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		n, err := dnswire.ParseName(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nsec3scan: skipping %q: %v\n", line, err)
			continue
		}
		return n, true
	}
	return "", false
}

// resultSink is one worker's sink: a private compliance aggregate plus
// the shared NDJSON encoder (which serializes writes internally).
type resultSink struct {
	enc *scanner.Encoder
	agg *compliance.Aggregate
}

// Consume implements scanner.Sink.
func (s *resultSink) Consume(r scanner.Result) {
	// A failed encode can only mean stdout is gone; the final Flush
	// in run reports it once instead of once per result.
	_ = s.enc.Write(r)
	if r.Err == nil {
		s.agg.Add(compliance.Classify(r.Facts))
	}
}

func run() error {
	var (
		resolverArg = flag.String("resolver", "127.0.0.1:5301", "recursive resolver to scan through")
		workers     = flag.Int("workers", 32, "concurrent scan workers")
		qps         = flag.Int("qps", 0, "query rate limit (0 = unlimited)")
		inPath      = flag.String("in", "-", "domain list file ('-' = stdin)")
		seed        = flag.Uint64("seed", 1, "seed for probe labels, query IDs and retry jitter")
	)
	flag.Parse()
	resolverAddr, err := netip.ParseAddrPort(*resolverArg)
	if err != nil {
		return fmt.Errorf("bad -resolver: %w", err)
	}

	in := os.Stdin
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close() // read-only input; a close error cannot lose data
		in = f
	}
	src := &lineSource{sc: bufio.NewScanner(in)}

	s := scanner.New(scanner.Config{
		Exchanger: &netsim.UDPExchanger{},
		Resolver:  resolverAddr,
		Workers:   *workers,
		QPS:       *qps,
		Seed:      *seed,
	})
	defer s.Close()
	out := bufio.NewWriter(os.Stdout)
	// Early-return safety net; the success path Flushes explicitly
	// below and checks the error there.
	defer out.Flush()
	enc := scanner.NewEncoder(out)
	var sinks []*resultSink
	err = s.ScanAll(context.Background(), src, func(int) scanner.Sink {
		sink := &resultSink{enc: enc, agg: compliance.NewAggregate()}
		sinks = append(sinks, sink)
		return sink
	})
	if err != nil {
		return err
	}
	if err := src.sc.Err(); err != nil {
		return fmt.Errorf("reading domains: %w", err)
	}
	agg := compliance.NewAggregate()
	for _, sink := range sinks {
		agg.Merge(sink.agg)
	}
	if err := out.Flush(); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	fmt.Fprintf(os.Stderr,
		"nsec3scan: %d domains; %d DNSSEC-enabled (%.1f %%); %d NSEC3-enabled (%.1f %% of DNSSEC); "+
			"Item 2 OK %.1f %%, Item 3 OK %.1f %%, both %.1f %% of NSEC3-enabled\n",
		agg.Total,
		agg.DNSSECEnabled, compliance.Pct(agg.DNSSECEnabled, agg.Total),
		agg.NSEC3Enabled, compliance.Pct(agg.NSEC3Enabled, agg.DNSSECEnabled),
		compliance.Pct(agg.Item2OK, agg.NSEC3Enabled),
		compliance.Pct(agg.Item3OK, agg.NSEC3Enabled),
		compliance.Pct(agg.BothOK, agg.NSEC3Enabled))
	return nil
}
