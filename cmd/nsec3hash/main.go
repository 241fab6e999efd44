// Command nsec3hash computes the RFC 5155 hashed owner name of a
// domain, in the spirit of the classic BIND nsec3hash(1) utility:
//
//	nsec3hash <salt-hex|-> <algorithm> <iterations> <domain>
//
// Example (RFC 5155 Appendix A vector):
//
//	$ nsec3hash AABBCCDD 1 12 example
//	0p9mhaveqvm6t7vbl5lop2u3t2rp3tom (salt=AABBCCDD, hash=1, iterations=12)
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run prints the hashed owner name of the domain args name to stdout.
// It returns the exit status: 0, 1 on an argument that does not parse
// as its field, 2 on a flag that does not parse or a wrong number of
// arguments (0 for -h). Hashing waits on nothing, so the context is
// unused: run has the shape every command's run shares.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nsec3hash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: nsec3hash <salt-hex|-> <algorithm> <iterations> <domain>") }
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if args = fs.Args(); len(args) != 4 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nsec3hash:", err)
		return 1
	}
	var salt []byte
	if args[0] != "-" && args[0] != "" {
		var err error
		if salt, err = hex.DecodeString(strings.ToLower(args[0])); err != nil {
			return fail(fmt.Errorf("bad salt: %w", err))
		}
	}
	alg, err := strconv.ParseUint(args[1], 10, 8)
	if err != nil {
		return fail(fmt.Errorf("bad algorithm: %w", err))
	}
	iters, err := strconv.ParseUint(args[2], 10, 16)
	if err != nil {
		return fail(fmt.Errorf("bad iterations: %w", err))
	}
	name, err := dnswire.ParseName(args[3])
	if err != nil {
		return fail(fmt.Errorf("bad domain: %w", err))
	}
	p := nsec3.Params{
		Alg:        dnswire.NSEC3HashAlg(alg),
		Iterations: uint16(iters),
		Salt:       salt,
	}
	h, err := nsec3.Hash(name, p)
	if err != nil {
		return fail(err)
	}
	saltStr := "-"
	if len(salt) > 0 {
		saltStr = strings.ToUpper(hex.EncodeToString(salt))
	}
	fmt.Fprintf(stdout, "%s (salt=%s, hash=%d, iterations=%d)\n",
		nsec3.EncodeHash(h), saltStr, alg, iters)
	return 0
}
