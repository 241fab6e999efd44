package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/population"
)

// TestTrancoStudyMatchesUniverse runs the Figure 2 study end to end and
// holds every count to the generated universe it scanned: the scan must
// recover each ranked domain's DNSSEC and NSEC3 parameters exactly.
func TestTrancoStudyMatchesUniverse(t *testing.T) {
	const n = 2000
	for _, seed := range []uint64{1, 7} {
		u, err := population.GenerateRanked(population.Config{Registered: n, Seed: seed + 0x7714})
		if err != nil {
			t.Fatal(err)
		}
		var want TrancoReport
		want.ListSize = n
		for _, d := range u.Domains {
			if !d.DNSSEC {
				continue
			}
			want.DNSSECEnabled++
			if !d.NSEC3 {
				continue
			}
			want.NSEC3Enabled++
			want.NSEC3Ranks = append(want.NSEC3Ranks, d.Rank)
			if d.Iterations == 0 {
				want.ZeroIter++
			}
			if d.SaltLen == 0 {
				want.NoSalt++
			}
			if d.Iterations == 0 && d.SaltLen == 0 {
				want.Both++
			}
		}
		sort.Ints(want.NSEC3Ranks)

		got, err := RunTrancoStudy(context.Background(), TrancoConfig{ListSize: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got.ScanErrors != 0 {
			t.Errorf("seed %d: %d scan errors", seed, got.ScanErrors)
		}
		counts := func(r *TrancoReport) [6]int {
			return [6]int{r.ListSize, r.DNSSECEnabled, r.NSEC3Enabled, r.ZeroIter, r.NoSalt, r.Both}
		}
		c := counts(got)
		if c != counts(&want) {
			t.Errorf("seed %d: list/DNSSEC/NSEC3/ZeroIter/NoSalt/Both = %v, universe says %v", seed, c, counts(&want))
		}
		if !reflect.DeepEqual(got.NSEC3Ranks, want.NSEC3Ranks) {
			t.Errorf("seed %d: NSEC3Ranks differ from the universe's NSEC3 domains", seed)
		}
		t.Logf("seed %d: DNSSEC/NSEC3/ZeroIter/NoSalt/Both = %v", seed, c[1:])
	}
}
