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
	"flag"
	"fmt"
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
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "resolved:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen  = flag.String("listen", "127.0.0.1:5301", "UDP/TCP listen address")
		rootArg = flag.String("root", "", "root name server address (required)")
		anchor  = flag.String("anchor", "", "trust anchor DS RDATA: 'keytag alg digesttype hex' (empty = no validation)")
		profile = flag.String("profile", "bind9-2021", "policy profile name")
		metrics = flag.String("metrics", "", "serve /metrics and /healthz on this address")
	)
	flag.Parse()
	if *rootArg == "" {
		flag.Usage()
		return fmt.Errorf("-root is required")
	}
	rootAddr, err := netip.ParseAddrPort(*rootArg)
	if err != nil {
		return fmt.Errorf("bad -root: %w", err)
	}
	var prof *respop.Profile
	for _, p := range respop.Profiles() {
		if p.Policy.Name == *profile {
			prof = &p
			break
		}
	}
	if prof == nil {
		var names []string
		for _, p := range respop.Profiles() {
			names = append(names, p.Policy.Name)
		}
		return fmt.Errorf("unknown profile %q; have: %s", *profile, strings.Join(names, ", "))
	}
	cfg := resolver.Config{
		Roots:     []netip.AddrPort{rootAddr},
		Exchanger: &netsim.UDPExchanger{},
		Policy:    prof.Policy,
	}
	if *anchor != "" {
		ds, err := parseDS(*anchor)
		if err != nil {
			return err
		}
		cfg.TrustAnchor = []dnswire.DS{ds}
	}
	var handler netsim.Handler
	if *metrics != "" {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		queries := reg.Counter("resolved_queries_total", "client queries handled over UDP and TCP")
		res := resolver.New(cfg)
		handler = netsim.HandlerFunc(func(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
			queries.Inc()
			return res.Handle(ctx, from, q)
		})
		bound, stop, err := obs.Serve(*metrics, reg)
		if err != nil {
			return err
		}
		// Best-effort teardown: the process is exiting anyway.
		defer func() { _ = stop() }()
		fmt.Printf("resolved: metrics on http://%s/metrics\n", bound)
	} else {
		handler = resolver.New(cfg)
	}
	srv := &netsim.Server{Handler: handler}
	addr, err := srv.Listen(context.Background(), *listen)
	if err != nil {
		return err
	}
	fmt.Printf("resolved: %s (%s) listening on %s, root %s, validation=%v\n",
		prof.Policy.Name, prof.Vendor, addr, rootAddr, len(cfg.TrustAnchor) > 0)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return srv.Close()
}

// parseDS parses "keytag alg digesttype hexdigest".
func parseDS(s string) (dnswire.DS, error) {
	// Scanned into the fields themselves: Sscanf refuses a negative
	// value or one wider than the field instead of truncating it.
	var (
		ds     dnswire.DS
		digest string
	)
	if _, err := fmt.Sscanf(s, "%d %d %d %s", &ds.KeyTag, &ds.Algorithm, &ds.DigestType, &digest); err != nil {
		return dnswire.DS{}, fmt.Errorf("bad -anchor (want 'keytag alg digesttype hex'): %w", err)
	}
	ds.Digest = make([]byte, len(digest)/2)
	if _, err := fmt.Sscanf(strings.ToLower(digest), "%x", &ds.Digest); err != nil {
		return dnswire.DS{}, fmt.Errorf("bad -anchor digest: %w", err)
	}
	return ds, nil
}
