package mix

import "testing"

// TestSplitMix64KnownAnswers pins SplitMix64 to the reference
// generator: 0 and the golden gamma give its first two outputs from
// seed 0. population's domain streams and respop's permutations are
// seeded through it, so one moved bit reseeds every universe and fleet.
func TestSplitMix64KnownAnswers(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xE220A8397B1DCDAF},
		{0x9E3779B97F4A7C15, 0x6E789E6AA1B965F4},
		{1, 0x910A2DEC89025CC1},
		{42, 0xBDD732262FEB6E95},
		{0xFFFFFFFFFFFFFFFF, 0xE4D971771B652C20},
	} {
		if got := SplitMix64(c.in); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

// TestKeyFoldsEveryInput: seed, purpose, each field and each octet of
// a string move the draw, and equal inputs give equal draws.
func TestKeyFoldsEveryInput(t *testing.T) {
	base := New(1, 2).String("example.com.").Uint64(3)
	if again := New(1, 2).String("example.com.").Uint64(3); again != base {
		t.Fatalf("equal inputs drew %#x and %#x", base, again)
	}
	seen := map[Key]string{base: "base"}
	for name, k := range map[string]Key{
		"seed":         New(9, 2).String("example.com.").Uint64(3),
		"purpose":      New(1, 9).String("example.com.").Uint64(3),
		"field":        New(1, 2).String("example.com.").Uint64(9),
		"octet":        New(1, 2).String("example.con.").Uint64(3),
		"word":         New(1, 2).String("fxample.com.").Uint64(3),
		"length":       New(1, 2).String("example.com").Uint64(3),
		"leading zero": New(1, 2).String("\x00example.com.").Uint64(3),
		"order":        New(1, 2).Uint64(3).String("example.com."),
		"empty":        New(1, 2).String("").Uint64(3),
	} {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s draws what %s draws: %#x", name, prev, k)
		}
		seen[k] = name
	}
}

func TestKeyAllocatesNothing(t *testing.T) {
	s := "zz-probe-0123456789abcdef.example.com."
	if n := testing.AllocsPerRun(100, func() { _ = New(7, 1).String(s).Uint64(28) }); n != 0 {
		t.Fatalf("%v allocations per key, want 0", n)
	}
}
