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
	"flag"
	"fmt"
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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "authd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen     = flag.String("listen", "127.0.0.1:5300", "UDP/TCP listen address")
		zoneArg    = flag.String("zone", "", "origin=masterfile to load and sign")
		useNSEC3   = flag.Bool("nsec3", true, "sign with NSEC3")
		iterations = flag.Uint("iterations", 0, "NSEC3 additional iterations")
		saltHex    = flag.String("salt", "", "NSEC3 salt (hex)")
		optOut     = flag.Bool("optout", false, "NSEC3 opt-out flag")
		serveTB    = flag.Bool("testbed", false, "serve the rfc9276-in-the-wild.com testbed instead of -zone")
		metrics    = flag.String("metrics", "", "serve /metrics and /healthz on this address")
	)
	flag.Parse()

	srv := authserver.New()
	inception := uint32(time.Now().Add(-time.Hour).Unix())
	expiration := uint32(time.Now().Add(30 * 24 * time.Hour).Unix())

	switch {
	case *serveTB:
		// Build the testbed zones; the simulated hierarchy builder is
		// reused purely as a zone factory here.
		b := testbed.NewBuilder(inception, expiration)
		b.AddZone(testbed.ZoneSpec{
			Apex: dnswire.Root, Sign: zone.SignConfig{Denial: zone.DenialNSEC},
			Server: netsim.Addr4(198, 41, 0, 4),
		})
		b.AddZone(testbed.ZoneSpec{
			Apex: dnswire.MustParseName("com"), Sign: zone.SignConfig{Denial: zone.DenialNSEC3, OptOut: true},
			Server: netsim.Addr4(192, 5, 6, 30),
		})
		testbed.InstallTestbed(b, netsim.Addr4(203, 0, 113, 10), netsim.Addr6(0x10))
		h, err := b.Build(netsim.NewNetwork(1))
		if err != nil {
			return err
		}
		tb := dnswire.MustParseName(testbed.TestbedDomain)
		srv.AddZone(h.Zones[tb])
		for _, sub := range testbed.Subdomains() {
			srv.AddZone(h.Zones[sub.Apex()])
		}
		fmt.Printf("authd: serving the rfc9276 testbed (%d zones)\n", len(srv.Zones()))
	case *zoneArg != "":
		origin, path, ok := strings.Cut(*zoneArg, "=")
		if !ok {
			return fmt.Errorf("-zone must be origin=masterfile")
		}
		apex, err := dnswire.ParseName(origin)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		z, err := zone.ParseMaster(f, apex, 300)
		_ = f.Close() // read-only handle; parse errors are surfaced below
		if err != nil {
			return err
		}
		cfg := zone.SignConfig{Inception: inception, Expiration: expiration}
		if *useNSEC3 {
			if err := cfg.UseNSEC3(*iterations, *saltHex, *optOut); err != nil {
				return err
			}
		}
		signed, err := z.Sign(cfg)
		if err != nil {
			return err
		}
		srv.AddZone(signed)
		ds, _ := signed.DSForChild()
		fmt.Printf("authd: serving %s (%s), DS for the parent: %s\n", apex, cfg.Denial, ds)
	default:
		return fmt.Errorf("one of -zone or -testbed is required")
	}

	if *metrics != "" {
		reg := obs.NewRegistry()
		reg.Gauge("authd_zones", "signed zones currently served").Set(float64(len(srv.Zones())))
		// The server counts its own queries: a counting Handler around it
		// would hide ServeWire from the listener below.
		srv.Instrument(reg)
		bound, stop, err := obs.Serve(*metrics, reg)
		if err != nil {
			return err
		}
		// Best-effort teardown: the process is exiting anyway.
		defer func() { _ = stop() }()
		fmt.Printf("authd: metrics on http://%s/metrics\n", bound)
	}

	real := &netsim.Server{Handler: srv}
	addr, err := real.Listen(context.Background(), *listen)
	if err != nil {
		return err
	}
	fmt.Printf("authd: listening on %s (udp+tcp)\n", addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("authd: shutting down")
	return real.Close()
}
