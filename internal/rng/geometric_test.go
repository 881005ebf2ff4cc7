package rng

import (
	"math"
	"testing"
)

// The geometric sampler is the statistical foundation of the sparse dynamic-
// topology engine: skip-sampling is only exchangeable with a per-element
// Bernoulli scan if Geometric really has the P(G = k) = (1−p)^k·p law. These
// tests pin the pmf (chi-square), the moments, the skip-scan equivalence,
// and the edge cases. All seeds are fixed, so every check is deterministic.

// TestGeometricPMFChiSquare draws many geometrics and chi-square-tests the
// empirical pmf against (1−p)^k·p, tail pooled.
func TestGeometricPMFChiSquare(t *testing.T) {
	for _, p := range []float64{0.5, 0.2, 0.05} {
		r := New(41)
		const draws = 200000
		// Bin k = 0..K−1 plus a pooled tail, K chosen so the tail expectation
		// stays well above 5.
		K := int(math.Ceil(math.Log(20.0/draws) / math.Log(1-p)))
		hist := make([]float64, K+1)
		for i := 0; i < draws; i++ {
			g := r.Geometric(p)
			if g >= uint64(K) {
				hist[K]++
			} else {
				hist[g]++
			}
		}
		stat := 0.0
		for k := 0; k <= K; k++ {
			var want float64
			if k < K {
				want = math.Pow(1-p, float64(k)) * p * draws
			} else {
				want = math.Pow(1-p, float64(K)) * draws // tail P(G ≥ K)
			}
			stat += (hist[k] - want) * (hist[k] - want) / want
		}
		// df = K; the 0.001 critical value is ≈ df + 3.3√(2df), doubled for
		// deterministic-seed headroom.
		limit := 2 * (float64(K) + 3.3*math.Sqrt(2*float64(K)))
		if stat > limit {
			t.Errorf("p=%g: chi-square %.1f over %d bins, limit %.1f", p, stat, K+1, limit)
		}
	}
}

// TestGeometricMoments pins mean (1−p)/p and variance (1−p)/p² within
// sampling tolerance.
func TestGeometricMoments(t *testing.T) {
	for _, p := range []float64{0.3, 0.01, 0.001} {
		r := New(7)
		const draws = 300000
		var sum, sumsq float64
		for i := 0; i < draws; i++ {
			g := float64(r.Geometric(p))
			sum += g
			sumsq += g * g
		}
		mean := sum / draws
		wantMean := (1 - p) / p
		variance := sumsq/draws - mean*mean
		wantVar := (1 - p) / (p * p)
		// Sample-mean sd = √(var/draws); 5σ bands keep fixed seeds safe.
		tol := 5 * math.Sqrt(wantVar/draws)
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("p=%g: mean %.2f, want %.2f ± %.2f", p, mean, wantMean, tol)
		}
		if variance < wantVar*0.9 || variance > wantVar*1.1 {
			t.Errorf("p=%g: variance %.4g, want ≈ %.4g", p, variance, wantVar)
		}
	}
}

// TestSkipPastMatchesBernoulliScan pins the exchangeability claim directly:
// selecting indices of [0, n) by repeated SkipPast must give every index the
// same marginal inclusion probability p and a Binomial(n, p) selection count,
// just like flipping one coin per index.
func TestSkipPastMatchesBernoulliScan(t *testing.T) {
	const n, p, trials = 200, 0.07, 20000
	r := New(99)
	perIndex := make([]float64, n)
	var count, countsq float64
	for trial := 0; trial < trials; trial++ {
		c := 0.0
		for i := r.SkipPast(0, p); i < n; i = r.SkipPast(i+1, p) {
			perIndex[i]++
			c++
		}
		count += c
		countsq += c * c
	}
	wantCount := float64(n) * p
	meanCount := count / trials
	sdCount := math.Sqrt(float64(n) * p * (1 - p))
	if math.Abs(meanCount-wantCount) > 5*sdCount/math.Sqrt(trials) {
		t.Errorf("mean selections %.3f, want %.3f", meanCount, wantCount)
	}
	varCount := countsq/trials - meanCount*meanCount
	if varCount < sdCount*sdCount*0.9 || varCount > sdCount*sdCount*1.1 {
		t.Errorf("selection-count variance %.3f, want ≈ %.3f", varCount, sdCount*sdCount)
	}
	// Every position — first, middle, last — must be hit at rate p: a
	// off-by-one in the skip (e.g. i+G instead of i+1+G between hits) shows
	// up here immediately.
	tol := 5 * math.Sqrt(p*(1-p)/trials)
	for i := 0; i < n; i++ {
		if got := perIndex[i] / trials; math.Abs(got-p) > tol {
			t.Errorf("index %d selected at rate %.4f, want %.3f ± %.4f", i, got, p, tol)
		}
	}
}

func TestGeometricEdgeCases(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
		if g := r.Geometric(1.5); g != 0 {
			t.Fatalf("Geometric(1.5) = %d, want 0", g)
		}
	}
	// p ≤ 0 has no finite waiting time: Geometric panics, SkipPast reports
	// "no hit" without consuming randomness.
	for _, p := range []float64{0, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%g) did not panic", p)
				}
			}()
			r.Geometric(p)
		}()
		before := *r
		if got := r.SkipPast(17, p); got != math.MaxUint64 {
			t.Errorf("SkipPast(17, %g) = %d, want MaxUint64", p, got)
		}
		if *r != before {
			t.Errorf("SkipPast(17, %g) consumed randomness", p)
		}
	}
	// Tiny p cannot overflow into a small skip: the clamp keeps the result
	// at MaxUint64 (never wrapping), and near-1 increments never go backward.
	for i := 0; i < 1000; i++ {
		if got := r.SkipPast(math.MaxUint64-5, 0.5); got < math.MaxUint64-5 {
			t.Fatalf("SkipPast near MaxUint64 wrapped to %d", got)
		}
	}
	for i := 0; i < 1000; i++ {
		if g := r.Geometric(1e-300); g < 1<<40 {
			t.Fatalf("Geometric(1e-300) = %d: expected an astronomically large skip", g)
		}
	}
}

// TestGeoMatchesUnpreparedDraw pins the identity a prepared law draws by: on
// the same stream, Geo.Draw must return ⌊Exp()·(−1/ln(1−p))⌋ bit for bit,
// with the same clamp, and leave the stream in the same state — so preparing
// 1/λ once changes no draw and every skip-scan consumes exactly one Exp per
// skip. 10⁻⁹ is the small-p end, where λ ≈ p needs Log1p.
func TestGeoMatchesUnpreparedDraw(t *testing.T) {
	for _, p := range []float64{0.9, 0.5, 0.1, 1.0 / 3, 1e-3, 3.3e-4, 1e-9} {
		g := NewGeo(p)
		a, b := New(17), New(17)
		for i := 0; i < 20000; i++ {
			want := uint64(math.MaxUint64)
			if q := b.Exp() * (-1 / math.Log1p(-p)); q < maxGeometric {
				want = uint64(q)
			}
			if got := g.Draw(a); got != want {
				t.Fatalf("p=%g draw %d: prepared %d, per-draw formula %d", p, i, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("p=%g: prepared draws left the stream in a different state", p)
		}
	}
}
