package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	if !approx(s.Var, 2.5, 1e-12) {
		t.Fatalf("Var = %v, want 2.5", s.Var)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 {
		t.Fatalf("Median = %v, want 2.5", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty Summarize = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single Summarize = %+v", s)
	}
}

func TestMeanCI95(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i % 2) // mean 0.5, std 0.5
	}
	mean, hw := MeanCI95(xs)
	if !approx(mean, 0.5, 1e-9) {
		t.Fatalf("mean = %v", mean)
	}
	// 1.96 * 0.500025 / 100 ≈ 0.0098
	if !approx(hw, 0.0098, 0.0005) {
		t.Fatalf("half-width = %v", hw)
	}
}

func TestWilsonCI95(t *testing.T) {
	lo, hi := WilsonCI95(0, 100)
	if lo != 0 || hi < 0.02 || hi > 0.06 {
		t.Fatalf("Wilson(0,100) = [%v,%v]", lo, hi)
	}
	lo, hi = WilsonCI95(100, 100)
	if hi != 1 || lo > 0.98 || lo < 0.94 {
		t.Fatalf("Wilson(100,100) = [%v,%v]", lo, hi)
	}
	lo, hi = WilsonCI95(50, 100)
	if !approx((lo+hi)/2, 0.5, 0.01) || hi-lo > 0.25 {
		t.Fatalf("Wilson(50,100) = [%v,%v]", lo, hi)
	}
	lo, hi = WilsonCI95(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("Wilson(0,0) = [%v,%v]", lo, hi)
	}
}

func TestWilsonCIProperty(t *testing.T) {
	f := func(k, n uint16) bool {
		kk := int(k)
		nn := int(n)
		if nn == 0 {
			return true
		}
		kk %= nn + 1
		lo, hi := WilsonCI95(kk, nn)
		p := float64(kk) / float64(nn)
		return lo >= 0 && hi <= 1 && lo <= p+1e-12 && hi >= p-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTotalVariation(t *testing.T) {
	if tv := TotalVariation([]float64{1, 0}, []float64{0, 1}); tv != 1 {
		t.Fatalf("TV = %v, want 1", tv)
	}
	if tv := TotalVariation([]float64{0.5, 0.5}, []float64{0.5, 0.5}); tv != 0 {
		t.Fatalf("TV = %v, want 0", tv)
	}
	if tv := TotalVariation([]float64{0.7, 0.3}, []float64{0.5, 0.5}); !approx(tv, 0.2, 1e-12) {
		t.Fatalf("TV = %v, want 0.2", tv)
	}
}

func TestNormalize(t *testing.T) {
	p := Normalize([]int{1, 3})
	if !approx(p[0], 0.25, 1e-12) || !approx(p[1], 0.75, 1e-12) {
		t.Fatalf("Normalize = %v", p)
	}
	z := Normalize([]int{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Normalize zero = %v", z)
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Reference values from standard chi-square tables.
	cases := []struct {
		x   float64
		df  int
		p   float64
		tol float64
	}{
		{3.841, 1, 0.05, 0.001},
		{6.635, 1, 0.01, 0.001},
		{5.991, 2, 0.05, 0.001},
		{9.488, 4, 0.05, 0.001},
		{18.307, 10, 0.05, 0.001},
		{29.588, 42, 0.925, 0.01},
		{0, 5, 1, 0},
	}
	for _, c := range cases {
		got := ChiSquareSurvival(c.x, c.df)
		if !approx(got, c.p, c.tol) {
			t.Errorf("ChiSquareSurvival(%v, %d) = %v, want %v", c.x, c.df, got, c.p)
		}
	}
}

func TestChiSquareSurvivalMonotone(t *testing.T) {
	prev := 1.0
	for x := 0.0; x < 50; x += 0.5 {
		p := ChiSquareSurvival(x, 7)
		if p > prev+1e-12 {
			t.Fatalf("survival not monotone at x=%v: %v > %v", x, p, prev)
		}
		prev = p
	}
}

func TestChiSquareGOFUniform(t *testing.T) {
	// Perfectly uniform observations should give statistic 0, p-value 1.
	res, err := ChiSquareGOF([]int{100, 100, 100, 100}, []float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stat != 0 || res.DF != 3 || res.PValue != 1 {
		t.Fatalf("GOF uniform = %+v", res)
	}
}

func TestChiSquareGOFSkewed(t *testing.T) {
	// Extremely skewed observations should be rejected.
	res, err := ChiSquareGOF([]int{390, 10}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-10 {
		t.Fatalf("skewed GOF p-value = %v, want ~0", res.PValue)
	}
}

func TestChiSquareGOFZeroExpected(t *testing.T) {
	res, err := ChiSquareGOF([]int{10, 0}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue != 1 {
		t.Fatalf("degenerate GOF = %+v", res)
	}
	res, err = ChiSquareGOF([]int{10, 5}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Stat, 1) || res.PValue != 0 {
		t.Fatalf("impossible observation GOF = %+v", res)
	}
}

func TestChiSquareGOFErrors(t *testing.T) {
	if _, err := ChiSquareGOF([]int{1}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if _, err := ChiSquareGOF([]int{0, 0}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("empty sample not rejected")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f := FitLinear(xs, ys)
	if !approx(f.Slope, 2, 1e-12) || !approx(f.Intercept, 1, 1e-12) || !approx(f.R2, 1, 1e-12) {
		t.Fatalf("FitLinear = %+v", f)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	f := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || f.Intercept != 2 {
		t.Fatalf("constant-x fit = %+v", f)
	}
	if g := FitLinear([]float64{1}, []float64{1}); g.Slope != 0 {
		t.Fatalf("single-point fit = %+v", g)
	}
}

func TestFitPowerOfLogExact(t *testing.T) {
	// y = 3·log₂(x)² exactly.
	xs := []float64{4, 16, 64, 256, 1024}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		l := math.Log2(x)
		ys[i] = 3 * l * l
	}
	c, r2 := FitPowerOfLog(xs, ys, 2)
	if !approx(c, 3, 1e-9) || !approx(r2, 1, 1e-9) {
		t.Fatalf("FitPowerOfLog = c=%v r2=%v", c, r2)
	}
}

func TestFitPowerOfLogLinear(t *testing.T) {
	xs := []float64{8, 32, 128, 512}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * math.Log2(x)
	}
	c, r2 := FitPowerOfLog(xs, ys, 1)
	if !approx(c, 5, 1e-9) || r2 < 0.999 {
		t.Fatalf("FitPowerOfLog p=1: c=%v r2=%v", c, r2)
	}
}

func TestTotalVariationProperty(t *testing.T) {
	// TV is symmetric and within [0, 1] for probability vectors.
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		p := make([]float64, n)
		q := make([]float64, n)
		var sp, sq float64
		for i := 0; i < n; i++ {
			p[i] = math.Abs(raw[i])
			q[i] = math.Abs(raw[n+i])
			sp += p[i]
			sq += q[i]
		}
		if sp == 0 || sq == 0 {
			return true
		}
		for i := 0; i < n; i++ {
			p[i] /= sp
			q[i] /= sq
		}
		tv := TotalVariation(p, q)
		return tv >= -1e-12 && tv <= 1+1e-12 && approx(tv, TotalVariation(q, p), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKSUniformAcceptsUniform(t *testing.T) {
	// A low-discrepancy sequence is as uniform as it gets.
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = (float64(i) + 0.5) / 2000
	}
	stat, p := KSUniform(xs)
	if stat > 0.01 || p < 0.9 {
		t.Fatalf("uniform sequence: stat=%v p=%v", stat, p)
	}
}

func TestKSUniformRejectsSkewed(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		v := (float64(i) + 0.5) / 2000
		xs[i] = v * v // CDF sqrt(x), far from uniform
	}
	_, p := KSUniform(xs)
	if p > 1e-6 {
		t.Fatalf("skewed sample accepted: p=%v", p)
	}
}

func TestKSUniformEdgeCases(t *testing.T) {
	if stat, p := KSUniform(nil); stat != 0 || p != 1 {
		t.Fatalf("empty KS = %v, %v", stat, p)
	}
	// A single mid-point sample is maximally compatible.
	if _, p := KSUniform([]float64{0.5}); p < 0.5 {
		t.Fatalf("single-sample p = %v", p)
	}
}

func TestRunningMatchesSummarize(t *testing.T) {
	xs := make([]float64, 0, 1000)
	r := 1.0
	var run Running
	for i := 0; i < 1000; i++ {
		r = math.Mod(r*997.13+0.7, 37.0) // deterministic, uneven stream
		xs = append(xs, r)
		run.Add(r)
	}
	want := Summarize(xs)
	if run.N() != want.N {
		t.Fatalf("N = %d, want %d", run.N(), want.N)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", run.Mean(), want.Mean},
		{"var", run.Var(), want.Var},
		{"std", run.Std(), want.Std},
		{"min", run.Min(), want.Min},
		{"max", run.Max(), want.Max},
	} {
		if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestRunningMerge(t *testing.T) {
	var whole, a, b Running
	for i := 0; i < 500; i++ {
		x := float64((i*31)%97) / 7.0
		whole.Add(x)
		if i%3 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 || math.Abs(a.Var()-whole.Var()) > 1e-9 {
		t.Fatalf("merged moments (%v, %v) != whole (%v, %v)", a.Mean(), a.Var(), whole.Mean(), whole.Var())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged extremes diverged")
	}

	var empty Running
	empty.Merge(a)
	if empty.N() != a.N() || empty.Mean() != a.Mean() {
		t.Fatal("merge into empty lost data")
	}
}

func TestIntMedianMatchesSummarize(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 101} {
		var m IntMedian
		xs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			v := (i * 13) % 23
			m.Add(v)
			xs = append(xs, float64(v))
		}
		if got, want := m.Median(), Summarize(xs).Median; got != want {
			t.Fatalf("n=%d: IntMedian = %v, Summarize median = %v", n, got, want)
		}
		if m.N() != n {
			t.Fatalf("n=%d: N = %d", n, m.N())
		}
	}
	var empty IntMedian
	if empty.Median() != 0 || empty.N() != 0 {
		t.Fatal("empty IntMedian not zero")
	}
}
