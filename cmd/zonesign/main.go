// Command zonesign signs a master-file zone with NSEC or NSEC3 denial
// of existence and writes the signed zone back in master-file format —
// the repository's equivalent of dnssec-signzone(8).
//
//	zonesign -origin example.com. -in zone.db [-out signed.db]
//	         [-nsec3] [-iterations N] [-salt hex] [-optout]
//	         [-algorithm 8|13|15] [-inception unix] [-expiration unix]
//
// Following RFC 9276, the defaults are zero additional iterations and
// no salt; raising them prints a warning, since the whole point of the
// accompanying study is that nonzero values buy nothing and hurt
// resolvers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"encoding/hex"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
	"repro/internal/zone"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zonesign:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		origin     = flag.String("origin", "", "zone origin (required)")
		inPath     = flag.String("in", "", "input master file (required)")
		outPath    = flag.String("out", "", "output file (default stdout)")
		useNSEC3   = flag.Bool("nsec3", false, "use NSEC3 instead of NSEC")
		iterations = flag.Uint("iterations", 0, "NSEC3 additional iterations (RFC 9276: keep 0)")
		saltHex    = flag.String("salt", "", "NSEC3 salt in hex (RFC 9276: keep empty)")
		optOut     = flag.Bool("optout", false, "set the NSEC3 opt-out flag")
		algorithm  = flag.Uint("algorithm", 13, "DNSSEC algorithm (8, 13, or 15)")
		inception  = flag.Int64("inception", time.Now().Add(-time.Hour).Unix(), "RRSIG inception (unix)")
		expiration = flag.Int64("expiration", time.Now().Add(30*24*time.Hour).Unix(), "RRSIG expiration (unix)")
	)
	flag.Parse()
	if *origin == "" || *inPath == "" {
		flag.Usage()
		return fmt.Errorf("-origin and -in are required")
	}
	apex, err := dnswire.ParseName(*origin)
	if err != nil {
		return err
	}
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close() // read-only input; a close error cannot lose data
	z, err := zone.ParseMaster(f, apex, 300)
	if err != nil {
		return err
	}
	cfg := zone.SignConfig{
		Algorithm:  dnswire.SecAlgorithm(*algorithm),
		Inception:  uint32(*inception),
		Expiration: uint32(*expiration),
	}
	if *useNSEC3 {
		cfg.Denial = zone.DenialNSEC3
		var salt []byte
		if *saltHex != "" {
			if salt, err = hex.DecodeString(strings.ToLower(*saltHex)); err != nil {
				return fmt.Errorf("bad salt: %w", err)
			}
		}
		cfg.NSEC3 = nsec3.Params{Iterations: uint16(*iterations), Salt: salt}
		cfg.OptOut = *optOut
		if !cfg.NSEC3.RFC9276Compliant() {
			fmt.Fprintf(os.Stderr,
				"zonesign: warning: %d iterations / %d-byte salt violates RFC 9276 "+
					"(MUST use 0 iterations, SHOULD NOT use a salt)\n",
				*iterations, len(salt))
		}
	}
	signed, err := z.Sign(cfg)
	if err != nil {
		return err
	}

	out := os.Stdout
	if *outPath != "" {
		if out, err = os.Create(*outPath); err != nil {
			return err
		}
		// A close error on the written zone file means truncated
		// output; surface it as run's error unless one beat it there.
		defer func() {
			if cerr := out.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}()
	}
	// Emit the zone data, then signatures and denial records.
	if err := zone.WriteMaster(out, z); err != nil {
		return err
	}
	fmt.Fprintln(out, "; RRSIGs")
	for name, bitmap := range signed.AuthNames() {
		for _, t := range bitmap {
			sigs, err := signed.RRSIGsFor(name, t)
			if err != nil {
				return err
			}
			for _, sig := range sigs {
				fmt.Fprintln(out, sig)
			}
		}
	}
	switch cfg.Denial {
	case zone.DenialNSEC3:
		fmt.Fprintln(out, "; NSEC3 chain")
		for _, rec := range signed.Chain().Records {
			rr := signed.Chain().RRFor(rec, signed.NegativeTTL())
			fmt.Fprintln(out, rr)
			sigs, err := signed.RRSIGsFor(rr.Name, dnswire.TypeNSEC3)
			if err != nil {
				return err
			}
			for _, sig := range sigs {
				fmt.Fprintln(out, sig)
			}
		}
	default:
		fmt.Fprintln(out, "; NSEC chain")
		for name := range signed.AuthNames() {
			if rr, ok := signed.NSECRecord(name); ok {
				fmt.Fprintln(out, rr)
			}
		}
	}
	ds, err := signed.DSForChild()
	if err == nil {
		fmt.Fprintf(out, "; DS for the parent:\n; %s 3600 IN DS %s\n", apex, ds)
	}
	return nil
}
