package topo

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// This file pins the sparse edge-Markovian engine's *distributional*
// correctness: skip-sampling must be exchangeable with the dense per-pair
// Bernoulli scan it replaced. The dense reference below is an independent
// reimplementation of the old engine (one coin per pair per round); the
// sparse engine is compared against it — and against the analytic stationary
// law — on edge counts, degree histograms, and per-round flip counts over
// many seeds. All seeds are fixed, so the checks are deterministic.

// denseEdgeMarkovian is the Θ(n²) reference: one Bernoulli draw per
// potential pair per round, presence in a plain bool slice.
type denseEdgeMarkovian struct {
	n            int
	birth, death float64
	r            *rng.Source
	present      []bool
}

func newDenseRef(n int, birth, death float64) *denseEdgeMarkovian {
	return &denseEdgeMarkovian{n: n, birth: birth, death: death,
		present: make([]bool, n*(n-1)/2)}
}

func (d *denseEdgeMarkovian) start(seed uint64) {
	d.r = rng.New(seed)
	pi := d.birth / (d.birth + d.death)
	for i := range d.present {
		d.present[i] = d.r.Bool(pi)
	}
}

func (d *denseEdgeMarkovian) advance() (flips int) {
	for i := range d.present {
		if d.present[i] {
			if d.r.Bool(d.death) {
				d.present[i] = false
				flips++
			}
		} else if d.r.Bool(d.birth) {
			d.present[i] = true
			flips++
		}
	}
	return flips
}

func (d *denseEdgeMarkovian) edgeCount() int {
	c := 0
	for _, p := range d.present {
		if p {
			c++
		}
	}
	return c
}

func (d *denseEdgeMarkovian) degrees() []int {
	deg := make([]int, d.n)
	i := 0
	for u := 0; u < d.n-1; u++ {
		for v := u + 1; v < d.n; v++ {
			if d.present[i] {
				deg[u]++
				deg[v]++
			}
			i++
		}
	}
	return deg
}

// distParams is the small-n operating point shared by the distributional
// checks: π = 1/3 over 276 pairs, so means and variances are big enough to
// test and small enough to sample a few hundred times.
const (
	distN     = 24
	distBirth = 0.1
	distDeath = 0.2
	distSeeds = 300
)

// sampleEngines runs both engines over fresh seeds and returns, per engine,
// the round-`rounds` edge counts and pooled degree histograms.
func sampleEngines(t *testing.T, rounds int) (sparseEC, denseEC []float64, sparseDeg, denseDeg map[int]int) {
	t.Helper()
	sparseDeg = make(map[int]int)
	denseDeg = make(map[int]int)
	g := NewEdgeMarkovian(distN, distBirth, distDeath)
	d := newDenseRef(distN, distBirth, distDeath)
	for seed := uint64(0); seed < distSeeds; seed++ {
		g.Start(1000 + seed)
		d.start(5000 + seed)
		for r := 1; r <= rounds; r++ {
			g.Advance(r)
			d.advance()
		}
		sparseEC = append(sparseEC, float64(g.EdgeCount()))
		denseEC = append(denseEC, float64(d.edgeCount()))
		for u := 0; u < distN; u++ {
			sparseDeg[g.Degree(u)]++
		}
		for _, dg := range d.degrees() {
			denseDeg[dg]++
		}
	}
	return sparseEC, denseEC, sparseDeg, denseDeg
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)-1))
	return mean, sd
}

// TestEdgeMarkovianEdgeCountMatchesDenseReference compares the sparse
// engine's stationary edge-count distribution against both the dense
// reference and the analytic Binomial(P, π) law, at round 0 (the Start draw)
// and after several Advance rounds (stationarity preservation).
func TestEdgeMarkovianEdgeCountMatchesDenseReference(t *testing.T) {
	pi := distBirth / (distBirth + distDeath)
	pairs := float64(distN * (distN - 1) / 2)
	wantMean := pi * pairs
	wantSD := math.Sqrt(pairs * pi * (1 - pi))
	// The sample mean of distSeeds draws has sd wantSD/√distSeeds; 5σ keeps
	// the fixed-seed check deterministic-safe.
	tol := 5 * wantSD / math.Sqrt(distSeeds)
	for _, rounds := range []int{0, 6} {
		sparseEC, denseEC, _, _ := sampleEngines(t, rounds)
		sm, ssd := meanSD(sparseEC)
		dm, _ := meanSD(denseEC)
		if math.Abs(sm-wantMean) > tol {
			t.Errorf("round %d: sparse edge-count mean %.1f, want %.1f ± %.1f", rounds, sm, wantMean, tol)
		}
		if math.Abs(dm-wantMean) > tol {
			t.Errorf("round %d: dense edge-count mean %.1f, want %.1f ± %.1f (reference itself broken?)", rounds, dm, wantMean, tol)
		}
		if math.Abs(sm-dm) > 2*tol {
			t.Errorf("round %d: sparse mean %.1f vs dense mean %.1f differ beyond ±%.1f", rounds, sm, dm, 2*tol)
		}
		// Variance must match the binomial too — a skip-sampler that, say,
		// correlated neighboring pairs would shift it even with the mean right.
		if ssd < wantSD*0.75 || ssd > wantSD*1.35 {
			t.Errorf("round %d: sparse edge-count sd %.2f, want ≈ %.2f", rounds, ssd, wantSD)
		}
	}
}

// TestEdgeMarkovianDegreeChiSquare pools node degrees over many seeds and
// chi-square-tests the sparse engine's histogram against the analytic
// Binomial(n−1, π) pmf, and against the dense reference's histogram.
func TestEdgeMarkovianDegreeChiSquare(t *testing.T) {
	pi := distBirth / (distBirth + distDeath)
	_, _, sparseDeg, denseDeg := sampleEngines(t, 4)
	total := float64(distSeeds * distN)

	// Binomial(n−1, π) pmf, tails pooled so every expected bin count is ≥ 5.
	m := distN - 1
	pmf := make([]float64, m+1)
	for k := 0; k <= m; k++ {
		pmf[k] = math.Exp(lchoose(m, k) + float64(k)*math.Log(pi) + float64(m-k)*math.Log(1-pi))
	}
	lo, hi := 0, m
	for pmf[lo]*total < 5 {
		lo++
	}
	for pmf[hi]*total < 5 {
		hi--
	}
	chi := func(hist map[int]int, expect func(k int) float64) float64 {
		stat := 0.0
		for k := lo; k <= hi; k++ {
			obs := 0.0
			if k == lo || k == hi { // pooled tails
				for d, c := range hist {
					if (k == lo && d <= lo) || (k == hi && d >= hi) {
						obs += float64(c)
					}
				}
			} else {
				obs = float64(hist[k])
			}
			exp := expect(k)
			stat += (obs - exp) * (obs - exp) / exp
		}
		return stat
	}
	expectBinom := func(k int) float64 {
		p := pmf[k]
		if k == lo {
			p = 0
			for j := 0; j <= lo; j++ {
				p += pmf[j]
			}
		}
		if k == hi {
			p = 0
			for j := hi; j <= m; j++ {
				p += pmf[j]
			}
		}
		return p * total
	}
	// Degrees within one graph are weakly dependent (each edge feeds two
	// nodes), which inflates the statistic slightly — the thresholds are
	// therefore several times the 0.001 critical value for these df rather
	// than a sharp test. A wrong sampler (bias in the skip length, a missed
	// row in the pair decode) overshoots these by orders of magnitude.
	df := float64(hi - lo)
	limit := 4 * (df + 3*math.Sqrt(2*df))
	if stat := chi(sparseDeg, expectBinom); stat > limit {
		t.Errorf("sparse degree chi-square %.1f vs Binomial(%d, %.3f), limit %.1f", stat, m, pi, limit)
	}
	if stat := chi(denseDeg, expectBinom); stat > limit {
		t.Errorf("dense degree chi-square %.1f vs Binomial(%d, %.3f), limit %.1f (reference itself broken?)", stat, m, pi, limit)
	}
}

// lchoose is log C(n, k) via lgamma.
func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// TestEdgeMarkovianFlipExpectation checks the per-round flip count: at
// stationarity the expected number of events is death·E[present] +
// birth·E[absent] = 2·death·π·P, and Flips must track it — that is the whole
// Θ(flips) claim. The dense reference's own flip count is averaged alongside
// as a cross-check.
func TestEdgeMarkovianFlipExpectation(t *testing.T) {
	pi := distBirth / (distBirth + distDeath)
	pairs := float64(distN * (distN - 1) / 2)
	want := 2 * distDeath * pi * pairs // death·πP + birth·(1−π)P, equal at stationarity
	const rounds = 40
	g := NewEdgeMarkovian(distN, distBirth, distDeath)
	d := newDenseRef(distN, distBirth, distDeath)
	var sparseSum, denseSum float64
	samples := 0
	for seed := uint64(0); seed < 60; seed++ {
		g.Start(2000 + seed)
		d.start(7000 + seed)
		for r := 1; r <= rounds; r++ {
			g.Advance(r)
			sparseSum += float64(g.Flips())
			denseSum += float64(d.advance())
			samples++
		}
	}
	sparseMean := sparseSum / float64(samples)
	denseMean := denseSum / float64(samples)
	// Per-round flips ~ sum of two binomials with total sd ≈ √want; the mean
	// over `samples` rounds is tight, but rounds within a run are dependent,
	// so allow a generous 10% band.
	if math.Abs(sparseMean-want) > want*0.1 {
		t.Errorf("sparse mean flips/round %.2f, want %.2f ± 10%%", sparseMean, want)
	}
	if math.Abs(denseMean-want) > want*0.1 {
		t.Errorf("dense mean flips/round %.2f, want %.2f ± 10%% (reference itself broken?)", denseMean, want)
	}
}

// TestEdgeMarkovianIncrementalMatchesRebuild is the structural property test
// behind the incremental adjacency: after any Start/Advance history, the
// neighbor lists, edge table, and membership set must describe exactly the
// same graph a from-scratch rebuild would — same edges, no duplicates — and
// the table and the lists must point at each other in both directions: each
// record's two slots hold list entries naming that record, and each list
// entry names a record that contains the list's owner.
func TestEdgeMarkovianIncrementalMatchesRebuild(t *testing.T) {
	check := func(g *EdgeMarkovian) bool {
		n := g.n
		// Rebuild the adjacency from the membership set alone.
		wantAdj := make([][]int32, n)
		edgeCount := 0
		for u := 0; u < n-1; u++ {
			for v := u + 1; v < n; v++ {
				if g.present.Has(pack(int32(u), int32(v))) {
					wantAdj[u] = append(wantAdj[u], int32(v))
					wantAdj[v] = append(wantAdj[v], int32(u))
					edgeCount++
				}
			}
		}
		if edgeCount != len(g.edges) || g.present.Len() != len(g.edges) {
			return false
		}
		// The edge table must hold each present pair exactly once,
		// canonically packed, and each record's slots must point at list
		// entries that name the record.
		seen := make(map[uint64]bool, len(g.edges))
		for k, ed := range g.edges {
			u, v := unpack(ed.pk)
			if u < 0 || v < 0 || int(u) >= n || int(v) >= n || u >= v || seen[ed.pk] {
				return false
			}
			if !g.present.Has(ed.pk) {
				return false
			}
			seen[ed.pk] = true
			if ed.su < 0 || int(ed.su) >= len(g.adj[u]) || g.adj[u][ed.su] != int32(k) {
				return false
			}
			if ed.sv < 0 || int(ed.sv) >= len(g.adj[v]) || g.adj[v][ed.sv] != int32(k) {
				return false
			}
		}
		// Each list entry must name a record containing the list's owner,
		// and the neighbors it yields must equal the rebuild as sets (the
		// incremental lists are unordered by design).
		for u := 0; u < n; u++ {
			got := make([]int32, 0, len(g.adj[u]))
			for _, k := range g.adj[u] {
				if k < 0 || int(k) >= len(g.edges) {
					return false
				}
				a, b := unpack(g.edges[k].pk)
				if a != int32(u) && b != int32(u) {
					return false
				}
				got = append(got, g.edges[k].other(int32(u)))
			}
			slices.Sort(got)
			if !slices.Equal(got, wantAdj[u]) {
				return false
			}
		}
		return true
	}
	f := func(seed uint64, extra uint8) bool {
		for _, rates := range [][2]float64{{0.15, 0.3}, {0.02, 0.9}, {1, 1}, {0.3, 0}} {
			g := NewEdgeMarkovian(19, rates[0], rates[1])
			g.Start(seed)
			if !check(g) {
				return false
			}
			rounds := 2 + int(extra%6)
			for r := 1; r <= rounds; r++ {
				g.Advance(r)
				if !check(g) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPairCursorMatchesPairIndex pins the engine's scan decode: over every
// pair of several sizes, visited one index at a time and with skips both
// shorter and longer than the cursor's walk limit, the cursor's (u, v) must
// encode back to the index it was given; at the size cap it must land on both
// sides of row boundaries spread over the whole population, reached by walks
// and by jumps.
func TestPairCursorMatchesPairIndex(t *testing.T) {
	for _, n := range []int{2, 3, 4, 24, 257} {
		g := NewEdgeMarkovian(n, 0.1, 0.1)
		for _, stride := range []int{1, 2, 7, n - 1, n + 3, 9 * n, 40 * n} {
			c := g.cursor()
			for i := 0; i < g.pairs(); i += stride {
				u, v := c.at(i)
				if u < 0 || v <= u || int(v) >= n || g.pairIndex(int(u), int(v)) != i {
					t.Fatalf("n=%d stride=%d: cursor at %d = (%d,%d)", n, stride, i, u, v)
				}
			}
		}
	}
	g := NewEdgeMarkovian(MaxDynamicN, 0.001, 0.5)
	c := g.cursor()
	last := g.pairs() - 1
	check := func(i, wantU, wantV int) {
		t.Helper()
		if u, v := c.at(i); int(u) != wantU || int(v) != wantV {
			t.Fatalf("n=%d: cursor at %d = (%d,%d), want (%d,%d)", MaxDynamicN, i, u, v, wantU, wantV)
		}
	}
	check(0, 0, 1)
	check(1, 0, 2)
	check(MaxDynamicN-2, 0, MaxDynamicN-1)
	for row := 1; row < MaxDynamicN-1; row += 1021 {
		i := g.rowBase(row)
		check(i-1, row-1, MaxDynamicN-1)
		check(i, row, row+1)
	}
	check(last-2, MaxDynamicN-3, MaxDynamicN-2)
	check(last-1, MaxDynamicN-3, MaxDynamicN-1)
	check(last, MaxDynamicN-2, MaxDynamicN-1)
}

// TestEdgeMarkovianPairAtRoundTrips pins the pair-index decode against the
// encode over every pair of several sizes (including the decode's float
// boundary behavior at the largest supported n).
func TestEdgeMarkovianPairAtRoundTrips(t *testing.T) {
	for _, n := range []int{2, 3, 24, 257} {
		g := NewEdgeMarkovian(n, 0.1, 0.1)
		i := 0
		for u := 0; u < n-1; u++ {
			for v := u + 1; v < n; v++ {
				gu, gv := g.pairAt(i)
				if int(gu) != u || int(gv) != v {
					t.Fatalf("n=%d: pairAt(%d) = (%d,%d), want (%d,%d)", n, i, gu, gv, u, v)
				}
				i++
			}
		}
	}
	// At the size cap (n = 2²⁰, pairs ≈ 5.5×10¹¹ — the exactness audit on
	// pairs() is what keeps the decode float path inside 2⁵³ here), check the
	// extremes and a row-boundary sweep rather than all pairs.
	g := NewEdgeMarkovian(MaxDynamicN, 0.001, 0.5)
	last := g.pairs() - 1
	for _, i := range []int{0, 1, MaxDynamicN - 2, MaxDynamicN - 1, last, last - 1} {
		u, v := g.pairAt(i)
		if u < 0 || v <= u || int(v) >= MaxDynamicN || g.pairIndex(int(u), int(v)) != i {
			t.Fatalf("n=%d: pairAt(%d) = (%d,%d) does not round-trip", MaxDynamicN, i, u, v)
		}
	}
	for row := 0; row < MaxDynamicN-1; row += 1021 {
		i := g.rowBase(row)
		if u, v := g.pairAt(i); int(u) != row || int(v) != row+1 {
			t.Fatalf("n=%d: pairAt(rowBase(%d)) = (%d,%d), want (%d,%d)", MaxDynamicN, row, u, v, row, row+1)
		}
		if i > 0 {
			if u, v := g.pairAt(i - 1); int(u) != row-1 || int(v) != MaxDynamicN-1 {
				t.Fatalf("n=%d: pairAt(rowBase(%d)-1) = (%d,%d), want (%d,%d)", MaxDynamicN, row, u, v, row-1, MaxDynamicN-1)
			}
		}
	}
}
