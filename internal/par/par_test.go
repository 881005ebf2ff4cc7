package par

import (
	"sync/atomic"
	"testing"
)

func TestForNCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 31, 32, 33, 1000} {
			hits := make([]atomic.Int32, n)
			ForN(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForNNegativeN(t *testing.T) {
	called := false
	ForN(4, -3, func(int) { called = true })
	if called {
		t.Fatal("fn called for negative n")
	}
}

func TestForNParallelismActuallyRuns(t *testing.T) {
	var total atomic.Int64
	ForN(8, 100000, func(i int) { total.Add(int64(i)) })
	want := int64(100000) * 99999 / 2
	if total.Load() != want {
		t.Fatalf("sum = %d, want %d", total.Load(), want)
	}
}
