// Package mix derives draws from what they are about. A Key folds a
// seed, a purpose constant and a subject's fields into one 64-bit
// value through SplitMix64, so every draw is a pure function of
// (seed, purpose, subject): no stream to share, no lock, and no
// dependence on which goroutine asked first.
package mix

// SplitMix64 is SplitMix64's output from state x (Steele, Lea and
// Flood, "Fast splittable pseudorandom number generators", 2014):
// SplitMix64(0) is the generator's first output from seed 0.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Key is a draw under construction; uint64(k) is the draw.
type Key uint64

// New starts a key from a seed and a purpose constant, so draws made
// for different purposes from one seed are independent.
func New(seed, purpose uint64) Key {
	return Key(SplitMix64(seed ^ SplitMix64(purpose)))
}

// Uint64 folds one field into k.
func (k Key) Uint64(v uint64) Key {
	return Key(SplitMix64(uint64(k) ^ v))
}

// String folds s into k eight octets at a time. The last word carries
// the length in its top octet, so "a" and "\x00a" fold apart.
func (k Key) String(s string) Key {
	var w uint64
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if i%8 == 7 {
			k, w = k.Uint64(w), 0
		}
	}
	return k.Uint64(w ^ uint64(len(s))<<56)
}
