// Command authd serves one or more signed zones authoritatively over
// real UDP and TCP sockets — the role the paper's name servers for
// rfc9276-in-the-wild.com played.
//
//	authd -listen 127.0.0.1:5300 -zone example.com.=zone.db \
//	      [-nsec3] [-iterations N] [-salt hex] [-optout] [-metrics :9090]
//
// With -testbed, authd instead serves the paper's full 49-subdomain
// measurement testbed (each subdomain a separately signed zone with its
// own iteration count), so a real resolver pointed at it can be
// classified by hand with dig.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/testbed"
	"repro/internal/zone"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves the zones args select until ctx is done, announcing what
// it serves and where on stdout and errors on stderr. It returns the
// exit status: 0, 1 when a zone or a listener fails, 2 on a flag that
// does not parse (0 for -h).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("authd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen     = fs.String("listen", "127.0.0.1:5300", "UDP/TCP listen address")
		zoneArg    = fs.String("zone", "", "origin=masterfile to load and sign")
		useNSEC3   = fs.Bool("nsec3", true, "sign with NSEC3")
		iterations = fs.Uint("iterations", 0, "NSEC3 additional iterations")
		saltHex    = fs.String("salt", "", "NSEC3 salt (hex)")
		optOut     = fs.Bool("optout", false, "NSEC3 opt-out flag")
		serveTB    = fs.Bool("testbed", false, "serve the rfc9276-in-the-wild.com testbed instead of -zone")
		metrics    = fs.String("metrics", "", "serve /metrics and /healthz on this address")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	exit := func(err error) int {
		if err != nil {
			fmt.Fprintln(stderr, "authd:", err)
			return 1
		}
		return 0
	}

	srv := authserver.New()
	inception := uint32(time.Now().Add(-time.Hour).Unix())
	expiration := uint32(time.Now().Add(30 * 24 * time.Hour).Unix())

	switch {
	case *serveTB:
		// Build the testbed zones; the simulated hierarchy builder is
		// reused purely as a zone factory here.
		b := testbed.NewBuilder(inception, expiration)
		testbed.InstallWorld(b)
		h, err := b.Build(netsim.NewNetwork(1))
		if err != nil {
			return exit(err)
		}
		srv.AddZone(h.Zones[dnswire.MustParseName(testbed.TestbedDomain)])
		for _, sub := range testbed.Subdomains() {
			srv.AddZone(h.Zones[sub.Apex()])
		}
		fmt.Fprintf(stdout, "authd: serving the rfc9276 testbed (%d zones)\n", len(srv.Zones()))
	case *zoneArg != "":
		origin, path, ok := strings.Cut(*zoneArg, "=")
		if !ok {
			return exit(fmt.Errorf("-zone must be origin=masterfile"))
		}
		apex, err := dnswire.ParseName(origin)
		if err != nil {
			return exit(err)
		}
		f, err := os.Open(path)
		if err != nil {
			return exit(err)
		}
		z, err := zone.ParseMaster(f, apex, 300)
		_ = f.Close() // read-only handle; parse errors are surfaced below
		if err != nil {
			return exit(err)
		}
		cfg := zone.SignConfig{Inception: inception, Expiration: expiration}
		if *useNSEC3 {
			if err := cfg.UseNSEC3(*iterations, *saltHex, *optOut); err != nil {
				return exit(err)
			}
		}
		signed, err := z.Sign(cfg)
		if err != nil {
			return exit(err)
		}
		srv.AddZone(signed)
		ds, _ := signed.DSForChild()
		fmt.Fprintf(stdout, "authd: serving %s (%s), DS for the parent: %s\n", apex, cfg.Denial, ds)
	default:
		return exit(fmt.Errorf("one of -zone or -testbed is required"))
	}

	if *metrics != "" {
		reg := obs.NewRegistry()
		reg.Gauge("authd_zones", "signed zones currently served").Set(float64(len(srv.Zones())))
		// The server counts its own queries: a counting Handler around it
		// would hide ServeWire from the listener below.
		srv.Instrument(reg)
		bound, stop, err := obs.Serve(*metrics, reg)
		if err != nil {
			return exit(err)
		}
		// Best-effort teardown: the server below is already closed.
		defer func() { _ = stop() }()
		fmt.Fprintf(stdout, "authd: metrics on http://%s/metrics\n", bound)
	}

	real := &netsim.Server{Handler: srv}
	addr, err := real.Listen(ctx, *listen)
	if err != nil {
		return exit(err)
	}
	fmt.Fprintf(stdout, "authd: listening on %s (udp+tcp)\n", addr)
	<-ctx.Done()
	fmt.Fprintln(stdout, "authd: shutting down")
	return exit(real.Close())
}
