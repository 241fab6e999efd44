package fanout

import (
	"errors"
	"fmt"
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
