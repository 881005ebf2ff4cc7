package sim

import (
	"repro/internal/par"
	"repro/internal/rng"
)

// ParallelTrials runs f for indices 0..trials-1 across workers goroutines and
// collects the results in order. Each trial receives a seed derived
// deterministically from (seed, i), so results are identical regardless of
// the worker count — the property that lets experiments be both parallel and
// reproducible.
func ParallelTrials[T any](trials, workers int, seed uint64, f func(i int, trialSeed uint64) T) []T {
	out := make([]T, trials)
	base := rng.New(seed)
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = base.Uint64()
	}
	par.ForN(workers, trials, func(i int) {
		out[i] = f(i, seeds[i])
	})
	return out
}

// ConfigSeed derives a per-configuration seed from a master seed and the
// cell's coordinates by hashing through the rng mixer, so no two sweep cells
// share trial seed streams (additive salts like seed+n+α·1e6 can collide).
func ConfigSeed(master uint64, coords ...uint64) uint64 {
	s := master
	for _, c := range coords {
		s = rng.Mix64(s, c)
	}
	return s
}
