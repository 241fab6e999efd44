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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/dnswire"
	"repro/internal/zone"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run signs the zone args name and writes it to -out (default stdout),
// with warnings and errors on stderr. It returns the exit status: 0, 1
// on a refused flag or a failed signing, 2 on a flag that does not
// parse (0 for -h). Signing waits on nothing, so the context is unused:
// run has the shape every command's run shares.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zonesign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		origin     = fs.String("origin", "", "zone origin (required)")
		inPath     = fs.String("in", "", "input master file (required)")
		outPath    = fs.String("out", "", "output file (default stdout)")
		useNSEC3   = fs.Bool("nsec3", false, "use NSEC3 instead of NSEC")
		iterations = fs.Uint("iterations", 0, "NSEC3 additional iterations (RFC 9276: keep 0)")
		saltHex    = fs.String("salt", "", "NSEC3 salt in hex (RFC 9276: keep empty)")
		optOut     = fs.Bool("optout", false, "set the NSEC3 opt-out flag")
		algorithm  = fs.Uint("algorithm", 13, "DNSSEC algorithm (8, 13, or 15)")
		inception  = fs.Int64("inception", time.Now().Add(-time.Hour).Unix(), "RRSIG inception (unix)")
		expiration = fs.Int64("expiration", time.Now().Add(30*24*time.Hour).Unix(), "RRSIG expiration (unix)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "zonesign:", err)
		return 1
	}
	if *origin == "" || *inPath == "" {
		fs.Usage()
		return fail(errors.New("-origin and -in are required"))
	}
	if *algorithm > math.MaxUint8 {
		return fail(fmt.Errorf("-algorithm %d: the DNSSEC algorithm field holds at most %d", *algorithm, math.MaxUint8))
	}
	apex, err := dnswire.ParseName(*origin)
	if err != nil {
		return fail(err)
	}
	z, err := readZone(*inPath, apex)
	if err != nil {
		return fail(err)
	}
	cfg := zone.SignConfig{
		Algorithm:  dnswire.SecAlgorithm(*algorithm),
		Inception:  uint32(*inception),
		Expiration: uint32(*expiration),
	}
	if *useNSEC3 {
		if err := cfg.UseNSEC3(*iterations, *saltHex, *optOut); err != nil {
			return fail(err)
		}
		if !cfg.NSEC3.RFC9276Compliant() {
			fmt.Fprintf(stderr,
				"zonesign: warning: %d iterations / %d-byte salt violates RFC 9276 "+
					"(MUST use 0 iterations, SHOULD NOT use a salt)\n",
				cfg.NSEC3.Iterations, len(cfg.NSEC3.Salt))
		}
	}
	signed, err := z.Sign(cfg)
	if err != nil {
		return fail(err)
	}
	if *outPath == "" {
		err = write(stdout, z, signed, cfg.Denial)
	} else {
		var f *os.File
		if f, err = os.Create(*outPath); err == nil {
			err = write(f, z, signed, cfg.Denial)
			// A close error on the written zone file means truncated
			// output: it fails the run unless an error beat it there.
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// readZone parses the master file at path under apex.
func readZone(path string, apex dnswire.Name) (*zone.Zone, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only input; a close error cannot lose data
	return zone.ParseMaster(f, apex, 300)
}

// write emits the zone data of z, then its signatures, its denial chain
// and the DS record for the parent. Owners come in canonical order
// (RFC 4034 §6.1) and each owner's types ascending, so the NSEC chain
// is in its own order and the same zone signed twice prints its
// records in the same order.
func write(out io.Writer, z *zone.Zone, signed *zone.Signed, denial zone.DenialMode) error {
	if err := zone.WriteMaster(out, z); err != nil {
		return err
	}
	auth := signed.AuthNames()
	names := make([]dnswire.Name, 0, len(auth))
	for name := range auth {
		names = append(names, name)
	}
	slices.SortFunc(names, dnswire.CanonicalCompare)
	fmt.Fprintln(out, "; RRSIGs")
	for _, name := range names {
		for _, t := range auth[name] {
			sigs, err := signed.RRSIGsFor(name, t)
			if err != nil {
				return err
			}
			for _, sig := range sigs {
				fmt.Fprintln(out, sig)
			}
		}
	}
	switch denial {
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
		for _, name := range names {
			if rr, ok := signed.NSECRecord(name); ok {
				fmt.Fprintln(out, rr)
			}
		}
	}
	ds, err := signed.DSForChild()
	if err == nil {
		fmt.Fprintf(out, "; DS for the parent:\n; %s 3600 IN DS %s\n", z.Apex, ds)
	}
	return nil
}
