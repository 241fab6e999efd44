package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha1"
	"crypto/sha256"
	"math/rand/v2"
	"sync"
	"time"

	"repro/bench/internal/stats"
)

// This file is the harness's yardstick for the box itself.
//
// The box is a slice of a shared host, and its speed moves in steps:
// for minutes at a time the DNS server, a pointer chase through memory
// and, in most of its calls, even a SHA-1 loop that never leaves the
// registers run a fifth to a third slower, then fast again, as the
// host's other tenants come and go. A timing taken in a slow stretch
// and one taken in a fast stretch differ by more than most changes to
// the program will, and no statistic inside one run can tell a slow
// program from a slow box.
//
// So every run also times a fixed reference kernel, in calls of a third
// of a millisecond spread through the measured time: a SHA-1 chain and
// an ECDSA P-256 signature made and verified, the arithmetic DNSSEC
// does, written against the standard library alone and touching a few
// hundred bytes, so that what a call costs depends on the box and not
// on the program, its heap or its cache footprint. The run's pace is what a call took over what it takes on the reference
// box on a good day, and every timing of the run is divided by the
// pace: the metrics read what the run would have read at the reference
// box's good-day speed. On a good day the pace is 1 and nothing
// changes; README.md ("Steadiness") has the measurements that show how
// much this removes.

// paceOf is the part of the reference calls one timing of the query
// loop is set against: a quantile of the calls made between the loop's
// windows, and what that quantile reads on the reference box on a good
// day.
type paceOf struct {
	quantile  float64
	nominalNS float64
}

var (
	paceOfMedianCall = paceOf{0.10, 267e3} // latency_p50_us
	paceOfRate       = paceOf{0.25, 278e3} // throughput_ops_s
	paceOfTailCall   = paceOf{0.50, 297e3} // latency_p99_us
)

// referenceConcurrentNS is what a reference call takes on the reference
// box on a good day when it is made from a goroutine of its own beside
// two busy workers (the mean of all but the slowest twentieth).
const referenceConcurrentNS = 300e3

// reference is the kernel's state. It is seeded with a constant: the
// kernel is the same in every run.
type reference struct {
	buf [64]byte
	key *ecdsa.PrivateKey
	rng *rand.Rand
}

// rngReader feeds crypto/ecdsa from the kernel's own generator, so a
// call never waits on the system's entropy source.
type rngReader struct{ r *rand.Rand }

func (d rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Uint32())
	}
	return len(p), nil
}

func newReference() (*reference, error) {
	r := &reference{rng: rand.New(rand.NewPCG(0x6e736563, 0x33)) /* "nsec", "3" */}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rngReader{r.rng})
	if err != nil {
		return nil, err
	}
	r.key = key
	return r, nil
}

// call runs the kernel once and returns how long it took.
func (r *reference) call() time.Duration {
	t0 := time.Now()
	for i := 0; i < 600; i++ {
		h := sha1.Sum(r.buf[:])
		copy(r.buf[:], h[:])
	}
	digest := sha256.Sum256(r.buf[:])
	sig, err := ecdsa.SignASN1(rngReader{r.rng}, r.key, digest[:])
	if err != nil || !ecdsa.VerifyASN1(&r.key.PublicKey, digest[:], sig) {
		panic("bench: the reference kernel's signature does not verify")
	}
	return time.Since(t0)
}

// pacer calls the reference kernel every few milliseconds from a
// goroutine of its own while a batch repetition runs.
type pacer struct {
	stop  chan struct{}
	once  sync.Once
	done  sync.WaitGroup
	calls []float64 // ns
}

const pacerEvery = 10 * time.Millisecond

func (r *reference) startPacer() *pacer {
	if r == nil {
		return nil
	}
	p := &pacer{stop: make(chan struct{}), calls: make([]float64, 0, 1024)}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(pacerEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.calls = append(p.calls, float64(r.call()))
			}
		}
	}()
	return p
}

// pace stops the pacer and returns the pace of the stretch it ran
// beside: the mean call, because a stretch's wall time takes in
// everything that happened to the box meanwhile — less the slowest
// twentieth of the calls, the ones during which the pacer's own thread
// lost its core. A second call returns the same value.
func (p *pacer) pace() float64 {
	if p == nil {
		return 1
	}
	p.once.Do(func() {
		close(p.stop)
		p.done.Wait()
	})
	if len(p.calls) == 0 {
		return 1
	}
	return stats.MeanOfFastest(p.calls, 0.95) / referenceConcurrentNS
}
