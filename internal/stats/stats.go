// Package stats provides the statistical machinery used to turn the paper's
// asymptotic "with high probability" claims into checkable empirical
// statements: summary statistics with confidence intervals, a chi-square
// goodness-of-fit test (for the fairness property of Theorem 4), total
// variation distance, Wilson score intervals for failure rates (Lemma 3,
// Theorem 7), and least-squares fits in transformed coordinates for the
// O(log n) / O(log² n) scaling laws.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Running is a bounded-memory (Welford) accumulator for streaming samples:
// count, mean, variance, min, and max in O(1) space, numerically stable over
// millions of observations. The zero value is an empty accumulator. Use it
// where Summarize would require materializing the whole sample.
type Running struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Merge folds another accumulator into this one (Chan et al. parallel
// variance combination), so per-worker accumulators can be reduced.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.mean += d * float64(o.n) / float64(n)
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	r.n = n
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
}

// N returns the number of observations.
func (r *Running) N() int { return int(r.n) }

// Mean returns the running mean (0 for an empty accumulator).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance.
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest observation (0 when empty).
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max returns the largest observation (0 when empty).
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Summary converts the accumulator into a Summary. Median is not available
// from a bounded-memory stream of arbitrary values and is reported as NaN;
// use IntMedian when the observable is integral.
func (r *Running) Summary() Summary {
	return Summary{
		N:      int(r.n),
		Mean:   r.Mean(),
		Var:    r.Var(),
		Std:    r.Std(),
		Min:    r.Min(),
		Max:    r.Max(),
		Median: math.NaN(),
	}
}

// IntMedian computes exact order statistics of a stream of integers in
// memory proportional to the number of *distinct* values — constant for
// bounded observables like round counts or message sizes, regardless of how
// many trials stream through. The zero value is ready to use.
type IntMedian struct {
	counts map[int]int64
	n      int64
}

// Add folds one observation into the counting histogram.
func (m *IntMedian) Add(x int) {
	if m.counts == nil {
		m.counts = make(map[int]int64)
	}
	m.counts[x]++
	m.n++
}

// N returns the number of observations.
func (m *IntMedian) N() int { return int(m.n) }

// Median returns the exact sample median (mean of the two middle order
// statistics for even counts; 0 when empty).
func (m *IntMedian) Median() float64 {
	if m.n == 0 {
		return 0
	}
	keys := make([]int, 0, len(m.counts))
	for k := range m.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	lo := (m.n - 1) / 2 // 0-based ranks of the middle pair
	hi := m.n / 2
	var vlo, vhi float64
	var seen int64
	for _, k := range keys {
		c := m.counts[k]
		if seen <= lo && lo < seen+c {
			vlo = float64(k)
		}
		if seen <= hi && hi < seen+c {
			vhi = float64(k)
			break
		}
		seen += c
	}
	return (vlo + vhi) / 2
}

// Summarize computes a Summary of xs. It returns a zero Summary for an empty
// sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Var)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// MeanCI95 returns the mean and the half-width of a 95% normal-approximation
// confidence interval for it.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	s := Summarize(xs)
	if s.N < 2 {
		return s.Mean, math.Inf(1)
	}
	return s.Mean, 1.959964 * s.Std / math.Sqrt(float64(s.N))
}

// WilsonCI95 returns the 95% Wilson score interval for a proportion with
// successes k out of n trials. The Wilson interval behaves sensibly for
// k = 0 and k = n, which matters when estimating w.h.p. failure rates that
// are often exactly zero in a finite sample.
func WilsonCI95(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959964
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// TotalVariation returns the total variation distance between two discrete
// distributions given as aligned probability slices. It panics if the slices
// have different lengths.
func TotalVariation(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: TotalVariation length mismatch")
	}
	d := 0.0
	for i := range p {
		d += math.Abs(p[i] - q[i])
	}
	return d / 2
}

// Normalize returns counts scaled to sum to 1. A zero-total input returns a
// zero slice.
func Normalize(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// ChiSquareResult reports a goodness-of-fit test.
type ChiSquareResult struct {
	Stat   float64 // chi-square statistic
	DF     int     // degrees of freedom
	PValue float64 // upper-tail probability
}

// ChiSquareGOF tests observed counts against expected probabilities.
// Categories with zero expected probability must have zero observed count,
// otherwise the statistic is +Inf. Categories with zero expectation are
// dropped from the degrees of freedom.
func ChiSquareGOF(observed []int, expectedProb []float64) (ChiSquareResult, error) {
	if len(observed) != len(expectedProb) {
		return ChiSquareResult{}, fmt.Errorf("stats: observed has %d categories, expected %d", len(observed), len(expectedProb))
	}
	total := 0
	for _, o := range observed {
		total += o
	}
	if total == 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: no observations")
	}
	stat := 0.0
	cats := 0
	for i, o := range observed {
		e := expectedProb[i] * float64(total)
		if e == 0 {
			if o != 0 {
				return ChiSquareResult{Stat: math.Inf(1), DF: 0, PValue: 0}, nil
			}
			continue
		}
		cats++
		d := float64(o) - e
		stat += d * d / e
	}
	df := cats - 1
	if df < 1 {
		return ChiSquareResult{Stat: stat, DF: df, PValue: 1}, nil
	}
	return ChiSquareResult{Stat: stat, DF: df, PValue: ChiSquareSurvival(stat, df)}, nil
}

// ChiSquareSurvival returns P[X >= x] for X ~ chi-square with df degrees of
// freedom, i.e. the upper regularized incomplete gamma Q(df/2, x/2).
func ChiSquareSurvival(x float64, df int) float64 {
	if x <= 0 {
		return 1
	}
	return regIncGammaQ(float64(df)/2, x/2)
}

// regIncGammaQ computes the upper regularized incomplete gamma function
// Q(a, x) = Γ(a, x)/Γ(a) using the series for x < a+1 and the continued
// fraction otherwise (Numerical Recipes style, stdlib math only).
func regIncGammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinued(a, x)
}

func gammaPSeries(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinued(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	const fpmin = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// LinearFit is a least-squares fit y ≈ Slope*x + Intercept with the
// coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear fits ys against xs by ordinary least squares. It panics on
// length mismatch and returns a zero fit for fewer than two points.
func FitLinear(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic("stats: FitLinear length mismatch")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinearFit{}
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Intercept: my}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit
}

// FitPowerOfLog fits y ≈ c · (log₂ x)^p for a fixed exponent p, returning c
// and the R² of the constrained fit. Used to check the O(log n) and
// O(log² n) claims: a good fit has R² near 1 and stable c across n.
func FitPowerOfLog(xs, ys []float64, p float64) (c, r2 float64) {
	if len(xs) != len(ys) {
		panic("stats: FitPowerOfLog length mismatch")
	}
	var num, den float64
	for i := range xs {
		b := math.Pow(math.Log2(xs[i]), p)
		num += b * ys[i]
		den += b * b
	}
	if den == 0 {
		return 0, 0
	}
	c = num / den
	var ssRes, ssTot, my float64
	for _, y := range ys {
		my += y
	}
	my /= float64(len(ys))
	for i := range xs {
		pred := c * math.Pow(math.Log2(xs[i]), p)
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	if ssTot == 0 {
		return c, 1
	}
	return c, 1 - ssRes/ssTot
}

// KSUniform computes the one-sample Kolmogorov–Smirnov statistic of xs
// against the Uniform(0,1) distribution and an approximate p-value from the
// asymptotic Kolmogorov distribution. Values must be pre-normalized into
// [0, 1]. It is used to test Claim 2 of Theorem 7: every agent's lottery
// value k/m must be uniform, also under coalition interference.
func KSUniform(xs []float64) (stat, pValue float64) {
	n := len(xs)
	if n == 0 {
		return 0, 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	d := 0.0
	for i, x := range sorted {
		lo := x - float64(i)/float64(n)
		hi := float64(i+1)/float64(n) - x
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d, ksSurvival(math.Sqrt(float64(n)) * d)
}

// ksSurvival is the asymptotic Kolmogorov survival function
// Q(t) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2k²t²).
func ksSurvival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * float64(k*k) * t * t)
		sum += sign * term
		sign = -sign
		if term < 1e-12 {
			break
		}
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
