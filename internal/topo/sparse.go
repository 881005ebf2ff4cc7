package topo

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// This file implements the implicit sparse graph processes: dynamic
// topologies that never materialize — or even index — the Θ(n²) pair
// population. Where the edge-Markovian chain samples *which* pairs flip out
// of all n(n−1)/2, the processes here are generated from O(n·degree) state
// directly (a stub array, a point set), so every per-round quantity is
// O(n·degree) by construction and million-node networks at bounded degree
// are as cheap per node as small ones. Both implement Dynamic; see that
// interface for the lifecycle, determinism, and concurrency contract.

// DRegular is the per-round re-matched random (approximately) d-regular
// graph: the configuration model, resampled fresh at every round boundary.
// Each node carries d stubs; a round shuffles the n·d stub array and pairs
// consecutive stubs, dropping self-loops and duplicate edges — so degrees
// are ≤ d, equal to d for all but the O(1) expected nodes caught in a
// dropped pairing, and every round's graph is independent of the last. This
// is the maximal-churn counterpart to the edge-Markovian chain's tunable
// persistence: the whole edge set turns over every round (Flips ≈ edge
// count), which makes it the stress extreme for protocols whose analysis
// assumes edges persist between rounds.
//
// Cost per round is Θ(n·d) shuffle plus Θ(edges) set maintenance; memory is
// O(n·d). Construct with NewDRegular, then Start.
type DRegular struct {
	n, d    int
	name    string
	r       rng.Source
	stubs   []int32    // n·d entries; stub i belongs to node i/d
	adj     [][]int32  // per-node neighbor lists, carved from one slab
	sets    [2]pairSet // current and previous round's edge sets (ping-pong)
	cur     int        // index of the current round's set
	flips   int
	started bool
}

var _ Dynamic = (*DRegular)(nil)

// NewDRegular returns an (unstarted) re-matched d-regular process on n
// nodes. It panics unless 3 ≤ n ≤ MaxDynamicN, 2 ≤ d < n, and n·d is even
// (a d-regular graph on n nodes exists only for even n·d — an odd stub
// count would leave one stub permanently unmatched).
func NewDRegular(n, d int) *DRegular {
	if n < 3 || n > MaxDynamicN {
		panic(fmt.Sprintf("topo: NewDRegular needs 3 <= n <= %d", MaxDynamicN))
	}
	if d < 2 || d >= n {
		panic("topo: NewDRegular needs 2 <= d < n")
	}
	if n*d%2 != 0 {
		panic("topo: NewDRegular needs n·d even")
	}
	return &DRegular{n: n, d: d, name: fmt.Sprintf("d-regular(%d)", d)}
}

// Start derives the process randomness from seed and materializes the
// round-0 matching.
func (dr *DRegular) Start(seed uint64) {
	dr.r.Reseed(seed)
	if dr.stubs == nil {
		dr.stubs = make([]int32, dr.n*dr.d)
		dr.adj = make([][]int32, dr.n)
		slab := make([]int32, dr.n*dr.d)
		for u := range dr.adj {
			dr.adj[u] = slab[u*dr.d : u*dr.d : (u+1)*dr.d]
		}
	}
	// The stub array must be re-canonicalized: shuffling permutes it, so a
	// pooled instance would otherwise start its Fisher–Yates walk from the
	// previous run's final order and break same-seed determinism.
	for i := range dr.stubs {
		dr.stubs[i] = int32(i / dr.d)
	}
	dr.sets[0].Clear()
	dr.sets[1].Clear()
	dr.rematch()
	dr.flips = 0 // round 0 is a draw, not a change
	dr.started = true
}

// Advance re-matches every stub for the new round.
func (dr *DRegular) Advance(round int) {
	if !dr.started {
		panic("topo: DRegular.Advance before Start")
	}
	dr.rematch()
}

// rematch shuffles the stub array, pairs consecutive stubs into edges
// (self-loops and duplicates dropped), and computes Flips as the symmetric
// difference against the previous round's edge set.
func (dr *DRegular) rematch() {
	old := &dr.sets[dr.cur]
	dr.cur ^= 1
	cur := &dr.sets[dr.cur]
	cur.Clear()
	stubs := dr.stubs
	for i := len(stubs) - 1; i > 0; i-- {
		j := dr.r.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	for u := range dr.adj {
		dr.adj[u] = dr.adj[u][:0]
	}
	common := 0
	for k := 0; k+1 < len(stubs); k += 2 {
		u, v := stubs[k], stubs[k+1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		pk := pack(u, v)
		if !cur.Add(pk) {
			continue
		}
		dr.adj[u] = append(dr.adj[u], v)
		dr.adj[v] = append(dr.adj[v], u)
		if old.Has(pk) {
			common++
		}
	}
	dr.flips = old.Len() + cur.Len() - 2*common
}

// N returns the node count.
func (dr *DRegular) N() int { return dr.n }

// CanSend reports whether the edge (u, v) is present this round; self-sends
// are always allowed.
func (dr *DRegular) CanSend(u, v int) bool {
	if u < 0 || u >= dr.n || v < 0 || v >= dr.n {
		return false
	}
	if u == v {
		return true
	}
	if u > v {
		u, v = v, u
	}
	return dr.sets[dr.cur].Has(pack(int32(u), int32(v)))
}

// SamplePeer draws uniformly from u's current neighbor set; an isolated node
// can only talk to itself, matching the static adjacency graphs.
func (dr *DRegular) SamplePeer(u int, r *rng.Source) int {
	ns := dr.adj[u]
	if len(ns) == 0 {
		return u
	}
	return int(ns[r.Intn(len(ns))])
}

// Degree returns u's current degree.
func (dr *DRegular) Degree(u int) int { return len(dr.adj[u]) }

// Name identifies the process and its degree in reports.
func (dr *DRegular) Name() string { return dr.name }

// EdgeCount returns the number of edges currently present (analysis hook).
func (dr *DRegular) EdgeCount() int { return dr.sets[dr.cur].Len() }

// Flips reports how many edges the last Advance changed.
func (dr *DRegular) Flips() int { return dr.flips }

// Geometric is the jittered random geometric graph on the unit torus: n
// points, an edge wherever two points lie within the connection radius
// r = √(deg/(π·n)) (so the expected degree is ≈ deg), and per-round motion —
// each round every point moves by an independent uniform offset in
// [−jitter, jitter] per axis, wrapping around. Edges churn only along the
// moving radius boundary, so jitter dials churn continuously from a frozen
// geometric graph (jitter = 0) toward full spatial re-mixing, while the
// graph keeps the locality structure the clique-free topologies of the
// paper's open problem ask about.
//
// The generator is implicit: membership is the O(1) distance predicate, and
// adjacency is rebuilt each round with a cell grid (cells no smaller than r,
// 3×3 windows), so a round costs O(n + edges) expected and memory is
// O(n + edges) — no pair population anywhere. Construct with NewGeometric,
// then Start.
type Geometric struct {
	n       int
	deg     float64 // target expected degree
	jitter  float64
	radius  float64
	r2      float64 // radius², the membership predicate's constant
	name    string
	r       rng.Source
	x, y    []float64 // current positions
	ox, oy  []float64 // previous round's positions (flip accounting)
	adj     [][]int32
	m       int     // cells per side of the grid, ⌊1/radius⌋
	cellOf  []int32 // cell index of each point, this round
	cellOff []int32 // CSR offsets over cells (m²+1)
	cellCur []int32 // fill cursors, scratch
	cellPts []int32 // point ids, cell-major
	oldEdge int     // previous round's edge count
	flips   int
	started bool
}

var _ Dynamic = (*Geometric)(nil)

// NewGeometric returns an (unstarted) jittered geometric process on n torus
// points with target expected degree deg. It panics unless
// 2 ≤ n ≤ MaxDynamicN, deg > 0 with connection radius √(deg/(π·n)) ≤ ¼
// (the cell grid needs at least 4 cells per side — at larger radii raise n
// or lower deg; the graph would be near-complete anyway), and jitter lies
// in [0, 1].
func NewGeometric(n int, deg, jitter float64) *Geometric {
	if n < 2 || n > MaxDynamicN {
		panic(fmt.Sprintf("topo: NewGeometric needs 2 <= n <= %d", MaxDynamicN))
	}
	if !(deg > 0) {
		panic("topo: NewGeometric needs deg > 0")
	}
	if jitter < 0 || jitter > 1 {
		panic("topo: NewGeometric needs jitter in [0, 1]")
	}
	radius := math.Sqrt(deg / (math.Pi * float64(n)))
	if radius > 0.25 {
		panic(fmt.Sprintf("topo: NewGeometric radius %.3f > 0.25 — deg %g too dense for n = %d", radius, deg, n))
	}
	return &Geometric{
		n:      n,
		deg:    deg,
		jitter: jitter,
		radius: radius,
		r2:     radius * radius,
		m:      int(1 / radius),
		name:   fmt.Sprintf("geometric(%g,%g)", deg, jitter),
	}
}

// Start derives the process randomness from seed, scatters the points
// uniformly, and materializes the round-0 edge set.
func (g *Geometric) Start(seed uint64) {
	g.r.Reseed(seed)
	if g.x == nil {
		g.x = make([]float64, g.n)
		g.y = make([]float64, g.n)
		g.ox = make([]float64, g.n)
		g.oy = make([]float64, g.n)
		g.cellOf = make([]int32, g.n)
		g.cellPts = make([]int32, g.n)
		g.cellOff = make([]int32, g.m*g.m+1)
		g.cellCur = make([]int32, g.m*g.m)
		g.adj = make([][]int32, g.n)
		// Degrees are ≈ Poisson(deg); seed capacities past the mean so
		// steady-state rebuilds essentially never regrow a list.
		cap0 := int(g.deg+5*math.Sqrt(g.deg+1)) + 8
		if cap0 > g.n-1 {
			cap0 = g.n - 1
		}
		slab := make([]int32, g.n*cap0)
		for u := range g.adj {
			g.adj[u] = slab[u*cap0 : u*cap0 : (u+1)*cap0]
		}
	}
	for u := 0; u < g.n; u++ {
		g.x[u] = g.r.Float64()
		g.y[u] = g.r.Float64()
	}
	g.build()
	g.flips = 0 // round 0 is a draw, not a change
	g.started = true
}

// Advance jitters every point and rebuilds the edge set for the new round.
func (g *Geometric) Advance(round int) {
	if !g.started {
		panic("topo: Geometric.Advance before Start")
	}
	g.x, g.ox = g.ox, g.x
	g.y, g.oy = g.oy, g.y
	for u := 0; u < g.n; u++ {
		g.x[u] = wrapUnit(g.ox[u] + g.jitter*(2*g.r.Float64()-1))
		g.y[u] = wrapUnit(g.oy[u] + g.jitter*(2*g.r.Float64()-1))
	}
	g.build()
}

// wrapUnit maps a coordinate back onto the unit torus [0, 1).
func wrapUnit(p float64) float64 { return p - math.Floor(p) }

// torusDist2 is the squared torus distance between two points, the O(1)
// membership predicate: an edge is present iff torusDist2 ≤ radius².
func torusDist2(ax, ay, bx, by float64) float64 {
	dx := math.Abs(ax - bx)
	if dx > 0.5 {
		dx = 1 - dx
	}
	dy := math.Abs(ay - by)
	if dy > 0.5 {
		dy = 1 - dy
	}
	return dx*dx + dy*dy
}

// build bins the points into the cell grid, rebuilds the adjacency from 3×3
// cell windows (cells are at least radius wide, so the window covers every
// candidate within range — on the torus too, since m ≥ 4 keeps the wrapped
// window duplicate-free), and computes Flips against the previous round's
// positions: an edge is born if its endpoints were out of range last round,
// and the deaths are the previous edges not re-found, counted as
// oldEdge − survivors without storing the old edge set at all — last round's
// membership is just the distance predicate on the old positions.
func (g *Geometric) build() {
	m := g.m
	for i := range g.cellOff {
		g.cellOff[i] = 0
	}
	for u := 0; u < g.n; u++ {
		g.cellOf[u] = g.cellIndex(g.x[u], g.y[u])
		g.cellOff[g.cellOf[u]+1]++
	}
	for c := 0; c < m*m; c++ {
		g.cellOff[c+1] += g.cellOff[c]
	}
	copy(g.cellCur, g.cellOff[:m*m])
	for u := 0; u < g.n; u++ {
		c := g.cellOf[u]
		g.cellPts[g.cellCur[c]] = int32(u)
		g.cellCur[c]++
	}
	for u := range g.adj {
		g.adj[u] = g.adj[u][:0]
	}
	edges, births, survivors := 0, 0, 0
	for u := 0; u < g.n; u++ {
		cu := int(g.cellOf[u])
		cx, cy := cu%m, cu/m
		for dy := -1; dy <= 1; dy++ {
			yy := cy + dy
			if yy < 0 {
				yy += m
			} else if yy >= m {
				yy -= m
			}
			for dx := -1; dx <= 1; dx++ {
				xx := cx + dx
				if xx < 0 {
					xx += m
				} else if xx >= m {
					xx -= m
				}
				c := yy*m + xx
				for _, v32 := range g.cellPts[g.cellOff[c]:g.cellOff[c+1]] {
					v := int(v32)
					if v <= u {
						continue
					}
					if torusDist2(g.x[u], g.y[u], g.x[v], g.y[v]) <= g.r2 {
						g.adj[u] = append(g.adj[u], int32(v))
						g.adj[v] = append(g.adj[v], int32(u))
						edges++
						if torusDist2(g.ox[u], g.oy[u], g.ox[v], g.oy[v]) <= g.r2 {
							survivors++
						} else {
							births++
						}
					}
				}
			}
		}
	}
	g.flips = births + (g.oldEdge - survivors)
	g.oldEdge = edges
}

// cellIndex bins a point; the clamp guards the x·m float product rounding
// up to m for coordinates just below 1.
func (g *Geometric) cellIndex(x, y float64) int32 {
	ix := int(x * float64(g.m))
	if ix >= g.m {
		ix = g.m - 1
	}
	iy := int(y * float64(g.m))
	if iy >= g.m {
		iy = g.m - 1
	}
	return int32(iy*g.m + ix)
}

// N returns the node count.
func (g *Geometric) N() int { return g.n }

// CanSend reports whether u and v are within the connection radius this
// round; self-sends are always allowed. This is the same predicate build
// materializes, so CanSend and the neighbor lists can never disagree.
func (g *Geometric) CanSend(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	if u == v {
		return true
	}
	return torusDist2(g.x[u], g.y[u], g.x[v], g.y[v]) <= g.r2
}

// SamplePeer draws uniformly from u's current neighbor set; an isolated node
// can only talk to itself, matching the static adjacency graphs.
func (g *Geometric) SamplePeer(u int, r *rng.Source) int {
	ns := g.adj[u]
	if len(ns) == 0 {
		return u
	}
	return int(ns[r.Intn(len(ns))])
}

// Degree returns u's current degree.
func (g *Geometric) Degree(u int) int { return len(g.adj[u]) }

// Name identifies the process, its target degree, and its jitter in reports.
func (g *Geometric) Name() string { return g.name }

// EdgeCount returns the number of edges currently present (analysis hook).
func (g *Geometric) EdgeCount() int { return g.oldEdge }

// Flips reports how many edges the last Advance changed.
func (g *Geometric) Flips() int { return g.flips }
