package rng

import (
	"math"
	"sort"
	"testing"
)

// TestZigguratTables pins the construction Exp's exactness rests on: every
// layer — the 254 built by the recursion, the top one closing on e^0 = 1,
// and the base strip with its tail — has area zigV, and the part of a layer
// Exp returns from without a further test covers about 98 % of draws.
func TestZigguratTables(t *testing.T) {
	const m = 1 << 53
	x := func(i int) float64 { return zigW[i] * m } // right edge of layer i ≥ 1
	base := zigR*math.Exp(-zigR) + math.Exp(-zigR)
	if math.Abs(base-zigV) > 1e-12*zigV {
		t.Errorf("base strip area %.17g, want %.17g", base, zigV)
	}
	for i := 1; i < 256; i++ {
		area := x(i) * (zigF[i-1] - zigF[i])
		if math.Abs(area-zigV) > 1e-9*zigV {
			t.Errorf("layer %d area %.17g, want %.17g", i, area, zigV)
		}
		if got := math.Exp(-x(i)); got != zigF[i] {
			t.Errorf("layer %d: zigF %.17g, want e^-x = %.17g", i, zigF[i], got)
		}
		if i >= 2 && zigK[i] != uint64(x(i-1)/x(i)*m) {
			t.Errorf("layer %d: zigK %d, want %d", i, zigK[i], uint64(x(i-1)/x(i)*m))
		}
	}
	if zigK[1] != 0 {
		t.Errorf("top layer zigK = %d, want 0 (no part wholly under the curve)", zigK[1])
	}
	fast := 0.0
	for _, k := range zigK {
		fast += float64(k) / m / 256
	}
	if fast < 0.975 || fast > 0.98 {
		t.Errorf("one-Uint64 share of draws %.4f, want ≈ 0.978", fast)
	}
}

// chiLimit is the 10⁻⁴ critical value of a chi-square with df degrees of
// freedom, by the Wilson–Hilferty approximation (z = 3.72).
func chiLimit(df int) float64 {
	c := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-c+3.72*math.Sqrt(c), 3)
}

// TestExpChiSquare chi-square-tests Exp against Exp(1) three ways, each aimed
// at a part of the ziggurat:
//   - on bins whose edges are the layers' right edges, so each bin below
//     zigR is the span one layer's wedge covers, plus three bins splitting
//     the tail beyond zigR;
//   - on the relative position of a draw inside its span, pooled over every
//     span: the wedges' accept test shapes the density inside a span, and a
//     wrong one moves mass toward a span's right end where a per-span bin,
//     spread over 255 of them, cannot see it;
//   - on the excess beyond zigR, which must be Exp(1) again (memoryless),
//     over enough draws to reach the tail a few thousand times.
func TestExpChiSquare(t *testing.T) {
	const m = 1 << 53
	edges := []float64{0}
	for i := 1; i < 256; i++ {
		edges = append(edges, zigW[i]*m)
	}
	edges = append(edges, zigR+1, zigR+2) // then the last bin runs to +Inf
	const draws, posBins = 2_000_000, 10
	hist := make([]float64, len(edges))
	pos := make([]float64, posBins)
	r := New(2024)
	for d := 0; d < draws; d++ {
		x := r.Exp()
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("draw %d: Exp() = %g", d, x)
		}
		k := sort.Search(len(edges), func(i int) bool { return edges[i] > x }) - 1 // the last edge ≤ x
		hist[k]++
		if x < zigR {
			pos[int((x-edges[k])/(edges[k+1]-edges[k])*posBins)]++
		}
	}
	stat := 0.0
	wantPos := make([]float64, posBins)
	for k := range edges {
		hi := 0.0 // e^(−upper edge) of the last bin, +Inf
		if k+1 < len(edges) {
			hi = math.Exp(-edges[k+1])
		}
		want := (math.Exp(-edges[k]) - hi) * draws
		stat += (hist[k] - want) * (hist[k] - want) / want
		if edges[k] < zigR {
			lo, w := edges[k], edges[k+1]-edges[k]
			for b := range wantPos {
				a, c := float64(b)/posBins, float64(b+1)/posBins
				wantPos[b] += (math.Exp(-(lo + a*w)) - math.Exp(-(lo + c*w))) * draws
			}
		}
	}
	if limit := chiLimit(len(edges) - 1); stat > limit {
		t.Errorf("layer bins: chi-square %.1f over %d bins, limit %.1f", stat, len(edges), limit)
	}
	stat = 0
	for b := range pos {
		stat += (pos[b] - wantPos[b]) * (pos[b] - wantPos[b]) / wantPos[b]
	}
	if limit := chiLimit(posBins - 1); stat > limit {
		t.Errorf("position within a span: chi-square %.1f over %d bins, limit %.1f (%v vs %v)",
			stat, posBins, limit, pos, wantPos)
	}

	// The tail: P(x > zigR) = e^(−zigR) ≈ 4.5·10⁻⁴, so 10⁷ draws reach it
	// ≈ 4 500 times. Four equal-probability bins of the excess.
	tail := make([]float64, 4)
	n := 0.0
	for d := 0; d < 10_000_000; d++ {
		if x := r.Exp(); x >= zigR {
			e := x - zigR
			tail[min(int(4*(1-math.Exp(-e))), 3)]++
			n++
		}
	}
	stat = 0
	for _, c := range tail {
		stat += (c - n/4) * (c - n/4) / (n / 4)
	}
	if limit := chiLimit(3); n < 3000 || stat > limit {
		t.Errorf("tail excess: %v of %.0f draws beyond zigR, chi-square %.1f, limit %.1f", tail, n, stat, limit)
	}
}

// TestExpMoments pins mean 1 and variance 1 within sampling tolerance.
func TestExpMoments(t *testing.T) {
	r := New(8)
	const draws = 1_000_000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		x := r.Exp()
		sum += x
		sumsq += x * x
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	// Sample-mean sd = 1/√draws; the sample variance's sd is √(8/draws)
	// (fourth central moment 9). 5σ bands keep the fixed seed safe.
	if tol := 5 / math.Sqrt(draws); math.Abs(mean-1) > tol {
		t.Errorf("mean %.5f, want 1 ± %.5f", mean, tol)
	}
	if tol := 5 * math.Sqrt(8.0/draws); math.Abs(variance-1) > tol {
		t.Errorf("variance %.5f, want 1 ± %.5f", variance, tol)
	}
}

// TestExpDeterministic pins same seed ⇒ same variates and same final state,
// and that distinct seeds give distinct variates.
func TestExpDeterministic(t *testing.T) {
	a, b, c := New(5), New(5), New(6)
	differ := false
	for i := 0; i < 10000; i++ {
		x := a.Exp()
		if y := b.Exp(); x != y {
			t.Fatalf("draw %d: same seed gave %g and %g", i, x, y)
		}
		if x != c.Exp() {
			differ = true
		}
	}
	if *a != *b {
		t.Fatal("same seed left the streams in different states")
	}
	if !differ {
		t.Fatal("seeds 5 and 6 gave identical variates")
	}
}

// TestExpAllocs pins that a draw allocates nothing.
func TestExpAllocs(t *testing.T) {
	r := New(1)
	if allocs := testing.AllocsPerRun(1000, func() { r.Exp() }); allocs != 0 {
		t.Errorf("Exp allocates %.1f objects per draw, want 0", allocs)
	}
}
