// Command resolved runs the validating recursive resolver over real
// UDP/TCP sockets with a chosen NSEC3 iteration policy — point dig at
// it and watch RFC 9276 Items 6–12 in action.
//
//	resolved -listen 127.0.0.1:5301 -root 127.0.0.1:5300 \
//	         -anchor <ds-record> -profile bind9-2021
//
// The -profile values are the vendor behaviours the paper measured
// (see internal/respop): bind9-2021, bind9-cve-patched, unbound-2021,
// google-public-dns, quad9, cloudflare, opendns, technitium,
// strict-zero, legacy-2018, item7-violator, three-phase,
// non-validating.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/zone"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves the validating resolver args configure until ctx is done,
// announcing it on stdout and errors on stderr. It returns the exit
// status: 0, 1 on a refused flag value or a failed listener, 2 on a
// flag that does not parse (0 for -h).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("resolved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen  = fs.String("listen", "127.0.0.1:5301", "UDP/TCP listen address")
		rootArg = fs.String("root", "", "root name server address (required)")
		anchor  = fs.String("anchor", "", "trust anchor DS RDATA: 'keytag alg digesttype hex' (empty = no validation)")
		profile = fs.String("profile", "bind9-2021", "policy profile name")
		metrics = fs.String("metrics", "", "serve /metrics and /healthz on this address")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	exit := func(err error) int {
		if err != nil {
			fmt.Fprintln(stderr, "resolved:", err)
			return 1
		}
		return 0
	}
	if *rootArg == "" {
		fs.Usage()
		return exit(fmt.Errorf("-root is required"))
	}
	rootAddr, err := netip.ParseAddrPort(*rootArg)
	if err != nil {
		return exit(fmt.Errorf("bad -root: %w", err))
	}
	var (
		prof  *respop.Profile
		names []string
	)
	for _, p := range respop.Profiles() {
		if p.Policy.Name == *profile {
			prof = &p
			break
		}
		names = append(names, p.Policy.Name)
	}
	if prof == nil {
		return exit(fmt.Errorf("unknown profile %q; have: %s", *profile, strings.Join(names, ", ")))
	}
	cfg := resolver.Config{
		Roots:     []netip.AddrPort{rootAddr},
		Exchanger: &netsim.UDPExchanger{},
		Policy:    prof.Policy,
	}
	if *anchor != "" {
		ds, err := zone.ParseRData(dnswire.TypeDS, *anchor, dnswire.Root)
		if err != nil {
			return exit(fmt.Errorf("bad -anchor (want 'keytag alg digesttype hex'): %w", err))
		}
		cfg.TrustAnchor = []dnswire.DS{ds.(dnswire.DS)}
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		bound, stop, err := obs.Serve(*metrics, reg)
		if err != nil {
			return exit(err)
		}
		// Best-effort teardown: the server below is already closed.
		defer func() { _ = stop() }()
		fmt.Fprintf(stdout, "resolved: metrics on http://%s/metrics\n", bound)
	}
	cfg.Obs = reg
	res := resolver.New(cfg)
	queries := reg.Counter("resolved_queries_total", "client queries handled over UDP and TCP")
	srv := &netsim.Server{Handler: netsim.HandlerFunc(func(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		queries.Inc()
		return res.Handle(ctx, from, q)
	})}
	addr, err := srv.Listen(ctx, *listen)
	if err != nil {
		return exit(err)
	}
	fmt.Fprintf(stdout, "resolved: %s (%s) listening on %s, root %s, validation=%v\n",
		prof.Policy.Name, prof.Vendor, addr, rootAddr, len(cfg.TrustAnchor) > 0)
	<-ctx.Done()
	return exit(srv.Close())
}
