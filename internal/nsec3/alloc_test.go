package nsec3

import (
	"math"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// TestAppendHashAllocFree pins the denial-proof hot path: hashing a
// query name into a caller-provided buffer must not allocate, at any
// realistic iteration count. The shapes are a short salt, the
// testbed's (empty salt, 2,500 iterations) and the longest salt whose
// rehash input still fits one SHA-1 block (35 octets).
func TestAppendHashAllocFree(t *testing.T) {
	name := dnswire.MustParseName("www.example.org.")
	dst := make([]byte, 0, HashLen)
	for _, p := range []Params{
		{Alg: dnswire.NSEC3HashSHA1, Iterations: 10, Salt: []byte{0xab, 0xcd}},
		{Alg: dnswire.NSEC3HashSHA1, Iterations: RFC5155MaxIterations},
		{Alg: dnswire.NSEC3HashSHA1, Iterations: 150, Salt: make([]byte, 35)},
	} {
		if n := testing.AllocsPerRun(100, func() {
			var err error
			dst, err = AppendHash(dst[:0], name, p)
			if err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("AppendHash(%v) into spare capacity allocates %.1f times per run, want 0", p, n)
		}
	}
}

// hashSink keeps Hash's result live so escape analysis cannot
// stack-allocate it and the measurement sees the real caller cost.
var hashSink []byte

// TestHashSingleAlloc pins the convenience wrapper's floor: exactly
// one allocation, the returned hash itself.
func TestHashSingleAlloc(t *testing.T) {
	name := dnswire.MustParseName("www.example.org.")
	p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 10, Salt: []byte{0xab, 0xcd}}
	if n := testing.AllocsPerRun(100, func() {
		var err error
		hashSink, err = Hash(name, p)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Hash allocates %.1f times per run, want exactly 1 (the returned digest)", n)
	}
}

// proofSink keeps the proof live so the measured calls are not elided.
var proofSink Proof

// TestProveNXDOMAINAllocFree pins the server side of a negative answer:
// on a chain that has seen the closest encloser before, synthesizing
// the three-record proof allocates nothing — the closest encloser comes
// from the index, the wildcard from its record's slot, the proof points
// into the chain, and the one hash computed (the next-closer name's)
// lives on the stack.
func TestProveNXDOMAINAllocFree(t *testing.T) {
	c, names := buildTestChain(t, Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 10, Salt: []byte{0xab, 0xcd}}, false)
	exists := existsFn(names)
	qnames := []dnswire.Name{
		dnswire.MustParseName("nope.example.com"),
		dnswire.MustParseName("x.y.www.example.com"),
		dnswire.MustParseName("z.b.example.com"), // below an empty non-terminal
	}
	for _, q := range qnames { // warm each encloser's wildcard slot
		if _, err := c.ProveNXDOMAIN(q, exists); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range qnames {
		if n := testing.AllocsPerRun(100, func() {
			var err error
			if proofSink, err = c.ProveNXDOMAIN(q, exists); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ProveNXDOMAIN(%s) on a warm chain allocates %.1f times per run, want 0", q, n)
		}
	}
}

// minOfRounds times each of fs once per round, for n rounds, and
// returns each one's fastest timing: the run least disturbed by the
// scheduler. Interleaving the timings means a slow spell of the
// machine (another process, a clock change) reaches every f alike
// instead of whichever happened to be timed during it.
func minOfRounds(n int, fs ...func()) []time.Duration {
	best := make([]time.Duration, len(fs))
	for i := range best {
		best[i] = time.Duration(math.MaxInt64)
	}
	for r := 0; r < n; r++ {
		for i, f := range fs {
			start := time.Now()
			f()
			best[i] = min(best[i], time.Since(start))
		}
	}
	return best
}

// TestServerHashCount counts the server's iterated hashes without a
// counter on the hot path: at 2,500 iterations a hash takes a few
// hundred microseconds and everything else in a proof is noise, so the
// ratio of a proof's time to one AppendHash's time is the number of
// hashes it computed. A warm NXDOMAIN proof is one hash (it was three),
// a NODATA proof and a Cover of an existing name are none (they were
// one).
func TestServerHashCount(t *testing.T) {
	c, names := buildTestChain(t, Params{Alg: dnswire.NSEC3HashSHA1, Iterations: RFC5155MaxIterations}, false)
	exists := existsFn(names)
	nx := dnswire.MustParseName("nope.www.example.com")
	www := dnswire.MustParseName("www.example.com")
	if _, err := c.ProveNXDOMAIN(nx, exists); err != nil { // warm www's wildcard slot
		t.Fatal(err)
	}
	var hb [HashLen]byte
	times := minOfRounds(25, func() {
		if _, err := AppendHash(hb[:0], nx, c.Params); err != nil {
			t.Fatal(err)
		}
	}, func() {
		if _, err := c.ProveNXDOMAIN(nx, exists); err != nil {
			t.Fatal(err)
		}
	}, func() {
		if _, err := c.ProveNODATA(www); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.Cover(www); err != nil || ok {
			t.Fatalf("Cover(www) = %v, %v", ok, err)
		}
	})
	hash, nxdomain, nodata := times[0], times[1], times[2]
	t.Logf("it-2500: one hash %v, warm NXDOMAIN proof %v, NODATA proof + Cover of an existing name %v", hash, nxdomain, nodata)
	if nxdomain*2 >= hash*3 {
		t.Errorf("warm NXDOMAIN proof took %v, one hash %v: more than one iterated hash per proof", nxdomain, hash)
	}
	if nxdomain*2 < hash {
		t.Errorf("warm NXDOMAIN proof took %v, one hash %v: the next-closer name must be hashed on every query", nxdomain, hash)
	}
	if nodata*10 >= hash {
		t.Errorf("NODATA proof of an existing name took %v, one hash %v: an indexed name must not be hashed", nodata, hash)
	}
}
