package fanout

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
)

// TestEachCallsEveryIndexOnce runs each width over a few sizes: every
// index is called exactly once.
func TestEachCallsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			calls := make([]atomic.Int32, n)
			if err := Each(n, workers, func(i int) error {
				calls[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("workers %d, n %d: index %d called %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestEachReturnsLowestFailingIndex fails every index from 100 on:
// whichever goroutine fails first, the error of index 100 comes back.
func TestEachReturnsLowestFailingIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := Each(1000, workers, func(i int) error {
			if i >= 100 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 100" {
			t.Fatalf("workers %d: got %v, want index 100", workers, err)
		}
	}
}

// TestEachStopsAfterFailure: on the caller alone, nothing runs after
// the failing index.
func TestEachStopsAfterFailure(t *testing.T) {
	errStop := errors.New("stop")
	calls := 0
	err := Each(100, 1, func(i int) error {
		calls++
		if i == 5 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || calls != 6 {
		t.Fatalf("got %v after %d calls, want errStop after 6", err, calls)
	}
}

// TestSplit: the runs cover n, the part count clamps to [1, n], and the
// first n%parts runs are the longer ones.
func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		n, parts int
		want     []int
	}{
		{10, 3, []int{4, 3, 3}},
		{10, 5, []int{2, 2, 2, 2, 2}},
		{7, 1, []int{7}},
		{7, 0, []int{7}},
		{7, -2, []int{7}},
		{3, 10, []int{1, 1, 1}},
		{1, 4, []int{1}},
		{0, 4, []int{}},
		{11, 4, []int{3, 3, 3, 2}},
	} {
		if got := Split(tc.n, tc.parts); !slices.Equal(got, tc.want) {
			t.Errorf("Split(%d, %d) = %v, want %v", tc.n, tc.parts, got, tc.want)
		}
	}
	for n := 0; n <= 40; n++ {
		for parts := -1; parts <= 45; parts++ {
			sizes := Split(n, parts)
			if want := min(max(parts, 1), n); len(sizes) != want {
				t.Fatalf("Split(%d, %d): %d runs, want %d", n, parts, len(sizes), want)
			}
			sum := 0
			for i, s := range sizes {
				sum += s
				want := n / len(sizes)
				if i < n%len(sizes) {
					want++
				}
				if s != want {
					t.Fatalf("Split(%d, %d) = %v: run %d is %d, want %d", n, parts, sizes, i, s, want)
				}
			}
			if sum != n {
				t.Fatalf("Split(%d, %d) = %v sums to %d", n, parts, sizes, sum)
			}
		}
	}
}
