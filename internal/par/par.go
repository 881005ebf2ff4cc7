// Package par provides a minimal deterministic parallel-for used to spread
// independent work (agent decision steps, Monte-Carlo trials) across CPUs.
// Work is partitioned into contiguous index blocks so the mapping from index
// to goroutine is deterministic, and the function receives the index only —
// callers must ensure fn(i) touches only data owned by index i.
package par

import (
	"runtime"
	"sync"
)

// ForN invokes fn(i) for every i in [0, n), using up to workers goroutines.
// workers <= 1 (or small n) runs inline. ForN returns when all calls have
// completed. fn must not panic; a panic in a worker propagates to the caller
// of ForN via the usual goroutine crash semantics only after corrupting the
// wait, so callers should treat fn panics as fatal bugs.
func ForN(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 || n < 32 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	block := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * block
		if lo >= n {
			break
		}
		hi := lo + block
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Chunks partitions [0, n) into up to workers contiguous blocks and invokes
// fn(w, lo, hi) with the block's worker index, one goroutine per block (the
// caller's goroutine when a single block suffices). Unlike ForN it has no
// small-n sequential cutoff: even a handful of expensive items (Monte-Carlo
// trials) spread across workers. The worker index lets the callee pick
// per-worker resources — a pooled arena, a counter shard — without locking.
// The partition is deterministic: block w always covers the same index range
// for a given (workers, n).
func Chunks(workers, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	block := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * block
		if lo >= n {
			break
		}
		hi := lo + block
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
