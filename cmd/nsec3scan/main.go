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
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/scanner"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// lineSource streams domain names off a reader one line at a time —
// scanner.ScanAll pulls from it as workers free up, so the domain list
// is never materialized. Lines that do not parse are skipped with a
// note on warn.
type lineSource struct {
	sc   *bufio.Scanner
	warn io.Writer
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
			fmt.Fprintf(l.warn, "nsec3scan: skipping %q: %v\n", line, err)
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

// run scans the domains named by args' -in (default "-", stdin),
// writing one NDJSON result per domain to stdout and the summary to
// stderr. It returns the exit status: 0, 1 on a refused flag or a
// failed scan, 2 on a flag that does not parse (0 for -h).
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nsec3scan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		resolverArg = fs.String("resolver", "127.0.0.1:5301", "recursive resolver to scan through")
		workers     = fs.Int("workers", 32, "concurrent scan workers")
		qps         = fs.Int("qps", 0, "query rate limit (0 = unlimited)")
		inPath      = fs.String("in", "-", "domain list file ('-' = stdin)")
		seed        = fs.Uint64("seed", 1, "seed for probe labels, query IDs and retry jitter")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	// The scanner reads Workers < 1 as its default of 32 and a negative
	// QPS as no limit: refuse both rather than scan at a rate not asked for.
	resolver, err := netip.ParseAddrPort(*resolverArg)
	switch {
	case err != nil:
		err = fmt.Errorf("bad -resolver: %w", err)
	case *workers < 1:
		err = fmt.Errorf("-workers %d: need at least one worker", *workers)
	case *qps < 0:
		err = fmt.Errorf("-qps %d: the rate is 0 (unlimited) or positive", *qps)
	default:
		err = scan(ctx, scanner.Config{
			Exchanger: &netsim.UDPExchanger{},
			Resolver:  resolver,
			Workers:   *workers,
			QPS:       *qps,
			Seed:      *seed,
		}, *inPath, stdin, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "nsec3scan:", err)
		return 1
	}
	return 0
}

// scan runs the scanner over the domain list at inPath, or on stdin
// when inPath is "-".
func scan(ctx context.Context, cfg scanner.Config, inPath string, stdin io.Reader, stdout, stderr io.Writer) error {
	in := stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close() // read-only input; a close error cannot lose data
		in = f
	}
	src := &lineSource{sc: bufio.NewScanner(in), warn: stderr}

	s := scanner.New(cfg)
	defer s.Close()
	out := bufio.NewWriter(stdout)
	// Early-return safety net; the success path Flushes explicitly
	// below and checks the error there.
	defer out.Flush()
	enc := scanner.NewEncoder(out)
	var sinks []*resultSink
	err := s.ScanAll(ctx, src, func(int) scanner.Sink {
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
	fmt.Fprintf(stderr,
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
