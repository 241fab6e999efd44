// Package load generates the authd_* workloads' inputs from a seed: the
// zone's host names and the query streams. The program under test only
// ever sees what is generated here; the same seed gives the same zone
// and the same stream.
package load

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"repro/internal/dnswire"
)

// Question is one query the stream asks, with the answer it expects.
type Question struct {
	Name dnswire.Name
	Type dnswire.Type
	// NX is true when the name does not exist and the answer must be
	// an NXDOMAIN carrying an NSEC3 proof.
	NX bool
}

// Stream yields an endless sequence of questions.
type Stream interface {
	Next() Question
}

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// splitmix is a bijection on uint64, so distinct counters give
// distinct labels.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// HostLabels returns n distinct host labels for the benchmark zone.
// The index keeps them distinct, the seeded suffix spreads their
// NSEC3 hashes differently per seed.
func HostLabels(seed uint64, n int) []string {
	rng := newRNG(seed, 0x686f7374) // "host"
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("h%05d-%06x", i, rng.Uint32()&0xffffff)
	}
	return out
}

// HotSize is the number of fixed questions the hot stream cycles.
const HotSize = 64

// Hot cycles HotSize fixed questions: half TXT lookups of existing
// names, half NXDOMAINs — the scanner's repeated-question shape, which
// a qname-keyed answer cache hits on every query.
type Hot struct {
	qs []Question
	i  int
}

// NewHot picks the fixed question set from seed.
func NewHot(seed uint64, apex dnswire.Name, labels []string) *Hot {
	rng := newRNG(seed, 0x686f74) // "hot"
	h := &Hot{qs: make([]Question, 0, HotSize)}
	for i := 0; i < HotSize/2; i++ {
		h.qs = append(h.qs,
			Question{Name: apex.MustChild(labels[rng.IntN(len(labels))]), Type: dnswire.TypeTXT},
			Question{Name: apex.MustChild(fmt.Sprintf("m%016x", rng.Uint64())), Type: dnswire.TypeA, NX: true},
		)
	}
	return h
}

// Next implements Stream.
func (h *Hot) Next() Question {
	q := h.qs[h.i]
	h.i = (h.i + 1) % len(h.qs)
	return q
}

// Unique never repeats a question name within the NXDOMAIN half and
// draws the positive half uniformly from the whole zone — the paper's
// cache-busting unique-subdomain probes, which bypass a qname-keyed
// cache.
type Unique struct {
	rng    *rand.Rand
	apex   dnswire.Name
	labels []string
	seed   uint64
	n      uint64
}

// NewUnique seeds a unique stream.
func NewUnique(seed uint64, apex dnswire.Name, labels []string) *Unique {
	return &Unique{rng: newRNG(seed, 0x756e6971), apex: apex, labels: labels, seed: seed} // "uniq"
}

// Next implements Stream.
func (u *Unique) Next() Question {
	u.n++
	if u.n%2 == 0 {
		return Question{Name: u.apex.MustChild(u.labels[u.rng.IntN(len(u.labels))]), Type: dnswire.TypeTXT}
	}
	label := fmt.Sprintf("u%016x", splitmix(u.seed^splitmix(u.n)))
	return Question{Name: u.apex.MustChild(label), Type: dnswire.TypeA, NX: true}
}

// Digest hashes the next n questions of s: two streams with the same
// digest asked the same questions in the same order.
func Digest(s Stream, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		q := s.Next()
		fmt.Fprintf(h, "%s %d %t\n", q.Name, q.Type, q.NX)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
