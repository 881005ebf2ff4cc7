//go:build linux

package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The probe is the benchmark's yardstick for "is a neighbour taxing this
// core right now": a fixed-count integer kernel of eight independent
// multiply-add chains, all of it register-resident. Eight chains keep the
// multiplier port saturated, which is exactly the resource an SMT sibling
// steals — a single dependent chain barely notices a neighbour, the high-IPC
// code under test does. It deliberately shares nothing with the repo's rng
// package, so optimising rng cannot move the yardstick.
const (
	// probeIters is fixed, never calibrated per run: ≈1.9 ms on the 2.6 GHz
	// build host when the sibling is idle, about twice that when it is not.
	probeIters = 800_000
	// probeRepeats: a probe times the kernel this many times back to back and
	// keeps the fastest. A neighbour's spell lasts from half a second up and
	// slows every repeat; the garbage collector of the process under test
	// finishing its cycle after a slice lasts a millisecond or two and does
	// not, so the minimum tells the two apart.
	probeRepeats = 3

	// probeTolerance is the quiet threshold: a probe counts as quiet when it
	// took at most this multiple of the fastest probe of the run. Measured
	// on the build host: on a calm host 90 % of probes sit below 1.02× and
	// the contended mode sits near 2×, so 1.10 separates the two with room
	// on both sides.
	probeTolerance = 1.10
)

var probeSink uint64 // keeps the kernel's result live

func probeKernel(iters int) uint64 {
	const m, c = 6364136223846793005, 1442695040888963407
	a0, a1, a2, a3, a4, a5, a6, a7 := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < iters; i++ {
		a0 = a0*m + c
		a1 = a1*m + c
		a2 = a2*m + c
		a3 = a3*m + c
		a4 = a4*m + c
		a5 = a5*m + c
		a6 = a6*m + c
		a7 = a7*m + c
	}
	return a0 ^ a1 ^ a2 ^ a3 ^ a4 ^ a5 ^ a6 ^ a7
}

// probe runs one copy of the kernel per GOMAXPROCS thread at once and
// returns the slowest copy's time in milliseconds: the program under test
// may land on any of those threads, so the worst one is the honest reading.
func probe() float64 {
	copies := runtime.GOMAXPROCS(0)
	times := make([]time.Duration, copies)
	sums := make([]uint64, copies)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// An untimed lead-in first: after a single-threaded slice the other
			// threads' CPUs have been idle, and what waking them costs is not
			// contention.
			sums[i] = probeKernel(probeIters / 2)
			for r := 0; r < probeRepeats; r++ {
				start := time.Now()
				sums[i] ^= probeKernel(probeIters)
				if d := time.Since(start); r == 0 || d < times[i] {
					times[i] = d
				}
			}
		}(i)
	}
	wg.Wait()
	worst := times[0]
	for i, t := range times {
		probeSink ^= sums[i]
		if t > worst {
			worst = t
		}
	}
	return ms(worst)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quietLimit is the slowest a probe may be and still count as quiet: the
// fastest probe of the whole run times the tolerance. A run that was
// contended from start to finish therefore still has quiet slices (its own
// fastest probe is the reference) — that case is caught by comparing
// host.probe_min_ms across runs, not here.
func quietLimit(probes []float64) float64 { return minOf(probes) * probeTolerance }

// quietSlices marks which slices of a run count. probes has one more entry
// than there are slices: slice i ran between probes[i] and probes[i+1], and
// is quiet when neither exceeds limit.
func quietSlices(probes []float64, limit float64) []bool {
	if len(probes) < 2 {
		return nil
	}
	quiet := make([]bool, len(probes)-1)
	for i := range quiet {
		quiet[i] = probes[i] <= limit && probes[i+1] <= limit
	}
	return quiet
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// windowDone is the stopping rule of a measured window: run for the nominal
// length, then keep going until the quiet-slice floor is met, but never past
// the cap — a run that hits the cap reports from the quiet slices it has and
// shows the shortfall in host.quiet_share.
func windowDone(elapsed, nominal, limit time.Duration, quiet, floor int) bool {
	if elapsed >= limit {
		return true
	}
	return elapsed >= nominal && quiet >= floor
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); xs is not modified. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tail returns the highest order statistic of xs that still has tailBeyond
// samples above it, and which percentile that is. When that would fall below
// the median — fewer than 2×tailBeyond+1 samples — no tail percentile
// qualifies and the median is returned as p50.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	i := n - 1 - tailBeyond
	if i < n/2 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[i], 100 * float64(i+1) / float64(n)
}
