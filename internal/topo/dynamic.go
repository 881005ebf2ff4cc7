package topo

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// This file implements dynamic topologies: graph processes whose edge set
// evolves between rounds, the graph-process analogue of churn. Where a fault
// schedule silences whole nodes over time, a Dynamic topology keeps every
// node up but rewrites who can talk to whom — the setting the source paper's
// "networks whose structure is not fixed" motivation points at.
//
// Lifecycle: a process is constructed once per run (it is mutable per-round
// state and must never be shared across concurrent runs), Start(seed) derives
// all of its randomness and materializes the round-0 edge set, and the engine
// calls Advance(r) exactly once per round boundary, in order, on the single
// delivery goroutine. Between Advance calls the edge set is immutable, so the
// engine's parallel Act phase may read it (CanSend, SamplePeer, Degree)
// concurrently. Two processes started from the same seed produce bit-identical
// edge sets round for round, independent of worker counts — the determinism
// contract the property tests pin.
//
// Cost model: the edge-Markovian process pays for events, not pairs. Advance
// draws the pairs that actually flip by geometric skip-sampling (waiting
// times distributionally identical to one Bernoulli coin per pair — see
// rng.SkipPast) and maintains the adjacency incrementally (an edge table
// whose records know their slots in both endpoints' neighbor lists,
// swap-remove on death, append on birth), so a round costs O(expected
// flips), each flip O(1), instead of the Θ(n²) per-pair scan and full CSR
// rebuild it replaces. Memory is O(present edges), not O(pairs): membership
// behind O(1) CanSend is a pairSet (open-addressing hash set over packed
// pair ids, ~16 bytes per present edge at maximum load) rather than the
// n²/8-byte presence bitset it replaces — at n = 2²⁰ the bitset would be
// 64 GB while a degree-64 process carries ~2³⁵ times less state than it has
// pairs. Per-node neighbor-list capacity is seeded from the stationary mean
// degree out of one shared backing slab, so a million-node process costs a
// handful of allocations, not one per node. Steady state allocates nothing
// per round; the allocation-budget tests enforce that the process cannot
// silently allocate per flip.
//
// Seed mapping: the skip-sampling engine consumes randomness per event where
// the per-pair scan it replaced consumed one draw per pair, so a given seed
// maps to a different (equally distributed) edge-set evolution than it did
// under the dense engine. The mapping moved once more when the skips stopped
// being drawn by inverse CDF, ⌊ln U / ln(1−p)⌋, and became a scaled
// exponential, ⌊E/λ⌋ with E from a ziggurat (rng.Geo): the same geometric
// law, but one Uint64 and a multiply per skip on almost every draw instead
// of a logarithm and a division, which were over a quarter of a flip's
// cost. Both remaps touch only the edge-Markovian process, the only caller
// of the skip sampler. Same-seed determinism is unchanged; recorded numbers
// from dynamic experiments (E12, E12b, and E13 up to n = 10⁵) were
// re-derived when the mapping changed.

// Dynamic is a Topology whose edge set evolves between rounds.
type Dynamic interface {
	Topology
	// Start derives the process randomness from seed and materializes the
	// round-0 edge set. It fully resets the process, so a pooled instance can
	// be reused across runs.
	Start(seed uint64)
	// Advance evolves the edge set from round-1 to round. The engine calls it
	// exactly once per round, in increasing round order, on the delivery
	// goroutine; callers must have called Start first.
	Advance(round int)
	// Flips reports how many edges the last Advance changed (births plus
	// deaths; 0 right after Start) — the event count the sparse engine's
	// per-round cost is proportional to, surfaced so benchmarks can report
	// work per round.
	Flips() int
}

// MaxDynamicN bounds the network size of the dynamic graph processes. With
// membership held in a hash set over present edges there is no per-pair state
// left anywhere, so the bound is no longer a memory guard — it only pins the
// range the pair-index arithmetic and the packed u<<32|v 32-bit-endpoint
// encoding are tested over, and it matches core.MaxN so every admissible
// network size admits a dynamic topology. Admission is keyed on edges: what
// actually bounds a process's footprint is MaxDynamicEdges below.
const MaxDynamicN = 1 << 20

// MaxDynamicEdges bounds the expected number of simultaneously present edges
// a scenario may ask a dynamic process to maintain — π·n(n−1)/2 with
// π = birth/(birth+death) for the edge-Markovian chain, n·d/2 for the
// degree-parameterized generators. A present edge costs ~40 bytes across the
// membership set (≤16 at maximum load), its 16-byte edge-table record, and
// two 4-byte neighbor-list entries, so the cap keeps a worst-case process
// around 2.7 GB — large enough for degree ≈ 128 at n = 2²⁰. The bound lives
// in scenario validation, not the constructors: direct topo users may exceed
// it knowingly.
const MaxDynamicEdges = 1 << 26

// csr is the per-round adjacency of the rewiring-ring process:
// off[u]..off[u+1] indexes u's neighbors in flat, ascending. cur is the fill
// cursor scratch. All three reuse capacity across rounds.
type csr struct {
	off  []int32
	cur  []int32
	flat []int32
}

// reset sizes the offset/cursor slices for n nodes and zeroes the offsets.
func (c *csr) reset(n int) {
	if cap(c.off) < n+1 {
		c.off = make([]int32, n+1)
		c.cur = make([]int32, n)
	}
	c.off = c.off[:n+1]
	c.cur = c.cur[:n]
	for i := range c.off {
		c.off[i] = 0
	}
}

// finish turns per-node counts (accumulated in off[u+1]) into offsets and
// sizes flat for the total, growing with headroom so fluctuating edge counts
// do not reallocate every round.
func (c *csr) finish(n int) {
	for u := 0; u < n; u++ {
		c.off[u+1] += c.off[u]
	}
	total := int(c.off[n])
	if cap(c.flat) < total {
		c.flat = make([]int32, total, total+total/4+64)
	}
	c.flat = c.flat[:total]
	copy(c.cur, c.off[:n])
}

// add appends the undirected edge (u, v) to both adjacency lists.
func (c *csr) add(u, v int32) {
	c.flat[c.cur[u]] = v
	c.cur[u]++
	c.flat[c.cur[v]] = u
	c.cur[v]++
}

func (c *csr) neighbors(u int) []int32 { return c.flat[c.off[u]:c.off[u+1]] }

// samplePeer draws uniformly from u's neighbor list; an isolated node can
// only talk to itself, matching the static adjacency graphs.
func (c *csr) samplePeer(u int, r *rng.Source) int {
	ns := c.neighbors(u)
	if len(ns) == 0 {
		return u
	}
	return int(ns[r.Intn(len(ns))])
}

// EdgeMarkovian is the edge-Markovian evolving graph G(t): every potential
// edge of the n-clique runs its own two-state Markov chain, appearing with
// probability birth and disappearing with probability death at each round
// boundary, all chains driven by one seed-derived stream. The round-0 edge
// set is drawn from the chain's stationary law, so the process is stationary
// from the first round: expected degree ≈ π·(n−1) with π = birth/(birth+death),
// and a present edge's half-life is governed by death — the knob the churn
// experiments sweep.
//
// The implementation is sparse: instead of flipping one coin per potential
// pair, Advance draws exactly the flipping pairs by geometric skip-sampling
// over the present-edge table (deaths) and over the full pair population with
// present pairs discarded (births) — each absent pair is still born
// independently with probability birth, so the per-round edge-set
// distribution is identical to the dense per-pair scan's. The adjacency is
// maintained incrementally: a death swap-removes the edge from the edge
// table and, at the slots its record stores, from both endpoints' neighbor
// lists; a birth appends. A round therefore costs O(birth·pairs +
// death·edges) expected draws at O(1) each — Θ(expected flips) whenever the
// stationary density is bounded away from 1 — rather than Θ(n²).
//
// Construct with NewEdgeMarkovian, then Start; see Dynamic for the lifecycle
// and concurrency contract.
type EdgeMarkovian struct {
	n       int
	birth   float64
	death   float64
	name    string
	r       rng.Source
	present pairSet   // membership over packed pair ids, O(present edges)
	edges   []edge    // present-edge table, unordered
	adj     [][]int32 // adj[u] holds the edge-table indices of u's edges, unordered
	deadPos []int32   // scratch: edge-list positions dying this round
	born    []uint64  // scratch: packed pairs born this round
	flips   int
	started bool

	// The skip laws of the three scans, prepared once: the stationary
	// π = birth/(birth+death) for Start, birth and death for Advance.
	piGeo, birthGeo, deathGeo rng.Geo
}

// edge is one record of the present-edge table: the packed pair u<<32|v and
// the edge's position in each endpoint's neighbor list, su in adj[u] and sv
// in adj[v]. A neighbor-list entry is the edge's index in the table, so each
// side points at the other and a death unlinks both lists in O(1).
type edge struct {
	pk     uint64
	su, sv int32
}

// other returns the endpoint of the edge that is not u.
func (ed edge) other(u int32) int32 { return int32(ed.pk>>32) ^ int32(uint32(ed.pk)) ^ u }

var _ Dynamic = (*EdgeMarkovian)(nil)

// NewEdgeMarkovian returns an (unstarted) edge-Markovian process on n nodes.
// It panics unless 2 ≤ n ≤ MaxDynamicN, birth and death lie in [0, 1], and
// birth+death > 0 (a chain with both rates zero never mixes and has no
// stationary law to draw round 0 from).
func NewEdgeMarkovian(n int, birth, death float64) *EdgeMarkovian {
	if n < 2 || n > MaxDynamicN {
		panic(fmt.Sprintf("topo: NewEdgeMarkovian needs 2 <= n <= %d", MaxDynamicN))
	}
	if birth < 0 || birth > 1 || death < 0 || death > 1 || birth+death == 0 {
		panic("topo: NewEdgeMarkovian needs birth, death in [0, 1] with birth+death > 0")
	}
	return &EdgeMarkovian{
		n:        n,
		birth:    birth,
		death:    death,
		name:     fmt.Sprintf("edge-markovian(%g,%g)", birth, death),
		piGeo:    rng.NewGeo(birth / (birth + death)),
		birthGeo: rng.NewGeo(birth),
		deathGeo: rng.NewGeo(death),
	}
}

// pairs returns the number of potential edges.
//
// Integer-exactness audit for the n ≤ MaxDynamicN = 2²⁰ range (pinned by
// TestPairCursorMatchesPairIndex and TestEdgeMarkovianPairAtRoundTrips at the
// cap):
//
//   - pairs = n(n−1)/2 ≈ 5.5×10¹¹ at the cap. The intermediate n·(n−1) ≈ 2⁴⁰
//     is far below the 2⁶³ int overflow line, and pairs itself is < 2⁵³, so
//     float64(pairs) — the stationary-edge expectation Start reserves for —
//     is exact.
//   - pairIndex's intermediate u·(2n−u−1) is maximized near u = n at < 2n²
//     ≤ 2⁴¹: overflow-free on int with 22 bits to spare.
//   - pairAt's float path squares nf = n − 0.5 < 2²⁰, so nf·nf < 2⁴⁰ and
//     2·float64(i) < 2⁴¹ are both exactly representable (< 2⁵³); the only
//     inexact step is the Sqrt, whose ±1-ulp error the integer fixup loops
//     absorb.
//   - pairCursor only adds row lengths to a row base, so every value it
//     holds is a pair index ≤ pairs: exact on int.
func (e *EdgeMarkovian) pairs() int { return e.n * (e.n - 1) / 2 }

// pairIndex maps u < v to the row-major index of the pair among all u' < v'.
func (e *EdgeMarkovian) pairIndex(u, v int) int {
	return u*(2*e.n-u-1)/2 + (v - u - 1)
}

// rowBase is pairIndex(u, u+1): the first pair index of row u.
func (e *EdgeMarkovian) rowBase(u int) int { return u * (2*e.n - u - 1) / 2 }

// pairAt inverts pairIndex: it decodes a row-major pair index into (u, v)
// with u < v. The row comes from the quadratic formula and is fixed up with
// exact integer comparisons, so float rounding cannot misplace a pair (every
// quantity entering the arithmetic is ≤ 2n² < 2⁵³, exactly representable —
// see the audit on pairs).
func (e *EdgeMarkovian) pairAt(i int) (u, v int32) {
	nf := float64(e.n) - 0.5
	row := int(nf - math.Sqrt(nf*nf-2*float64(i)))
	if row < 0 {
		row = 0
	}
	if row > e.n-2 {
		row = e.n - 2
	}
	for row > 0 && e.rowBase(row) > i {
		row--
	}
	for row < e.n-2 && e.rowBase(row+1) <= i {
		row++
	}
	return int32(row), int32(row + 1 + i - e.rowBase(row))
}

// pairCursor decodes an ascending sequence of row-major pair indices into
// (u, v). Start's and Advance's skip-scans visit indices in increasing order,
// so the next index's row is the current row or a later one: a nearby index
// is reached by walking forward row by row (row u holds n−1−u pairs) with
// adds only, and only an index more than cursorWalk rows' worth of pairs
// ahead pays pairAt's square root. Dense scans — many hits per row — so
// never leave the adds, while a sparse one never walks far between hits.
type pairCursor struct {
	e    *EdgeMarkovian
	row  int // current row u
	base int // rowBase(row)
	end  int // rowBase(row+1)
}

// cursorWalk is how many current-row lengths ahead pairCursor still walks to
// rather than jumping: a row step is an add and a compare, a jump a square
// root and the fix-up loops.
const cursorWalk = 8

// cursor starts a pair cursor at index 0.
func (e *EdgeMarkovian) cursor() pairCursor { return pairCursor{e: e, end: e.n - 1} }

// at decodes index i, which must not be below the previous call's.
func (c *pairCursor) at(i int) (u, v int32) {
	n := c.e.n
	if i >= c.end && i-c.end >= cursorWalk*(n-1-c.row) {
		row, _ := c.e.pairAt(i)
		c.row = int(row)
		c.base = c.e.rowBase(c.row)
		c.end = c.base + n - 1 - c.row
	}
	for i >= c.end {
		c.row++
		c.base = c.end
		c.end += n - 1 - c.row
	}
	return int32(c.row), int32(c.row + 1 + i - c.base)
}

// pack encodes an edge's endpoints for the membership set and edge table.
func pack(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// unpack decodes pack.
func unpack(p uint64) (u, v int32) { return int32(p >> 32), int32(uint32(p)) }

// Start draws the round-0 edge set from the stationary law π = b/(b+d), by
// the same skip-sampling Advance uses: O(expected edges) draws, not O(n²).
func (e *EdgeMarkovian) Start(seed uint64) {
	e.r.Reseed(seed)
	e.present.Clear()
	pi := e.birth / (e.birth + e.death)
	// Pre-size the membership set and the edge table for the stationary edge
	// count, so the round-0 fill neither rehashes nor re-appends its way up
	// through doublings (serve builds a fresh process per request). The edge
	// table also gets headroom for the count's fluctuation around its mean.
	// The hints are clamped: a caller knowingly past MaxDynamicEdges grows
	// incrementally rather than asking for oversized tables up front.
	mean := pi * float64(e.pairs())
	if want := int(math.Min(mean, MaxDynamicEdges)); want > 0 {
		e.present.Reserve(want)
	}
	if want := int(math.Min(mean+5*math.Sqrt(mean)+16, MaxDynamicEdges)); cap(e.edges) < want {
		e.edges = make([]edge, 0, want)
	}
	if e.adj == nil {
		e.adj = make([][]int32, e.n)
		// Seed each neighbor list's capacity well past the stationary mean
		// degree, so steady-state appends essentially never regrow — the
		// allocation budgets pin warmed Starts and Advances near zero. The
		// lists are carved from one shared slab: at n = 2²⁰ a per-node make
		// would be a million allocations before the first round.
		deg := pi * float64(e.n-1)
		cap0 := int(deg+5*math.Sqrt(deg+1)) + 8
		if cap0 > e.n-1 {
			cap0 = e.n - 1
		}
		slab := make([]int32, e.n*cap0)
		for u := range e.adj {
			e.adj[u] = slab[u*cap0 : u*cap0 : (u+1)*cap0]
		}
	} else {
		for u := range e.adj {
			e.adj[u] = e.adj[u][:0]
		}
	}
	e.edges = e.edges[:0]
	c := e.cursor()
	for i, p := e.piGeo.SkipPast(&e.r, 0), uint64(e.pairs()); i < p; i = e.piGeo.SkipPast(&e.r, i+1) {
		u, v := c.at(int(i))
		e.present.Add(pack(u, v))
		e.link(u, v)
	}
	e.flips = 0
	e.started = true
}

// Advance flips every potential edge once — in distribution: present edges
// die with probability death, absent edges are born with probability birth.
// Only the flipping pairs are materialized; see the type comment for the
// sampling argument and the cost model.
func (e *EdgeMarkovian) Advance(round int) {
	if !e.started {
		panic("topo: EdgeMarkovian.Advance before Start")
	}
	// Births: skip-scan the full pair population with probability birth.
	// A coin landing on a present pair is discarded (present pairs are not
	// birth-eligible), which leaves every absent pair born independently
	// with probability birth. The scan adds each newborn to the membership
	// set as it finds it, one probe per coin, and that answers every later
	// coin exactly as the start-of-round set would: the scan visits distinct
	// pairs in ascending order, so no coin lands on a pair born earlier in
	// the same scan, and the deaths below remove only start-of-round edges —
	// so a pair dying this round cannot also be reborn in the same round.
	e.born = e.born[:0]
	c := e.cursor()
	for i, p := e.birthGeo.SkipPast(&e.r, 0), uint64(e.pairs()); i < p; i = e.birthGeo.SkipPast(&e.r, i+1) {
		if pk := pack(c.at(int(i))); e.present.Add(pk) {
			e.born = append(e.born, pk)
		}
	}
	// Deaths: skip-scan the start-of-round edge table with
	// probability death. Positions come out ascending and are applied in
	// descending order, so a swap-remove only ever moves in an edge from
	// beyond every still-condemned position.
	e.deadPos = e.deadPos[:0]
	for i, p := e.deathGeo.SkipPast(&e.r, 0), uint64(len(e.edges)); i < p; i = e.deathGeo.SkipPast(&e.r, i+1) {
		e.deadPos = append(e.deadPos, int32(i))
	}
	for k := len(e.deadPos) - 1; k >= 0; k-- {
		e.removeAt(int(e.deadPos[k]))
	}
	for _, pk := range e.born {
		e.link(unpack(pk))
	}
	e.flips = len(e.deadPos) + len(e.born)
}

// link appends the edge (u, v), already in the membership set, to the edge
// table and to both neighbor lists.
func (e *EdgeMarkovian) link(u, v int32) {
	k := int32(len(e.edges))
	e.edges = append(e.edges, edge{pk: pack(u, v), su: int32(len(e.adj[u])), sv: int32(len(e.adj[v]))})
	e.adj[u] = append(e.adj[u], k)
	e.adj[v] = append(e.adj[v], k)
}

// removeAt deletes the present edge at position pos of the edge table from
// the membership set, both neighbor lists, and the table itself, each by
// swap-remove, and re-points the slots of the entries that moved.
func (e *EdgeMarkovian) removeAt(pos int) {
	ed := e.edges[pos]
	u, v := unpack(ed.pk)
	e.present.Remove(ed.pk)
	e.dropSlot(u, ed.su)
	e.dropSlot(v, ed.sv)
	last := len(e.edges) - 1
	if pos != last {
		moved := e.edges[last]
		e.edges[pos] = moved
		mu, mv := unpack(moved.pk)
		e.adj[mu][moved.su] = int32(pos)
		e.adj[mv][moved.sv] = int32(pos)
	}
	e.edges = e.edges[:last]
}

// dropSlot swap-removes entry s of u's neighbor list and re-points the
// record of the entry moved into its place.
func (e *EdgeMarkovian) dropSlot(u, s int32) {
	ns := e.adj[u]
	last := int32(len(ns) - 1)
	if s != last {
		k := ns[last]
		ns[s] = k
		if moved := &e.edges[k]; int32(moved.pk>>32) == u {
			moved.su = s
		} else {
			moved.sv = s
		}
	}
	e.adj[u] = ns[:last]
}

// N returns the node count.
func (e *EdgeMarkovian) N() int { return e.n }

// CanSend reports whether the edge (u, v) is present this round; self-sends
// are always allowed.
func (e *EdgeMarkovian) CanSend(u, v int) bool {
	if u < 0 || u >= e.n || v < 0 || v >= e.n {
		return false
	}
	if u == v {
		return true
	}
	if u > v {
		u, v = v, u
	}
	return e.present.Has(pack(int32(u), int32(v)))
}

// SamplePeer draws uniformly from u's current neighbor set; an isolated node
// can only talk to itself, matching the static adjacency graphs.
func (e *EdgeMarkovian) SamplePeer(u int, r *rng.Source) int {
	ns := e.adj[u]
	if len(ns) == 0 {
		return u
	}
	return int(e.edges[ns[r.Intn(len(ns))]].other(int32(u)))
}

// Degree returns u's current degree.
func (e *EdgeMarkovian) Degree(u int) int { return len(e.adj[u]) }

// Name identifies the process and its rates in reports.
func (e *EdgeMarkovian) Name() string { return e.name }

// EdgeCount returns the number of edges currently present (analysis hook).
func (e *EdgeMarkovian) EdgeCount() int { return len(e.edges) }

// Flips reports how many edges the last Advance changed.
func (e *EdgeMarkovian) Flips() int { return e.flips }

// RewireRing is the per-round rewiring variant of the ring builder: the
// n-cycle is the substrate, and at every round boundary each node's clockwise
// edge is independently replaced, with probability beta, by a chord to a peer
// chosen uniformly at random (the Watts–Strogatz rewiring step, resampled
// fresh every round rather than frozen at construction). beta = 0 reproduces
// the static ring round for round; beta = 1 is a fresh random functional
// graph every round. Unlike the edge-Markovian chain this process is
// inherently Θ(n) per round — all n clockwise edges are redrawn — which is
// already proportional to its event count.
//
// Construct with NewRewireRing, then Start; see Dynamic for the lifecycle and
// concurrency contract.
type RewireRing struct {
	n       int
	beta    float64
	name    string
	r       rng.Source
	target  []int32 // target[u] is the endpoint of u's clockwise edge this round
	adj     csr
	flips   int
	started bool
}

var _ Dynamic = (*RewireRing)(nil)

// NewRewireRing returns an (unstarted) rewiring-ring process on n nodes. It
// panics unless n ≥ 3 and beta lies in [0, 1].
func NewRewireRing(n int, beta float64) *RewireRing {
	if n < 3 {
		panic("topo: NewRewireRing needs n >= 3")
	}
	if beta < 0 || beta > 1 {
		panic("topo: NewRewireRing needs beta in [0, 1]")
	}
	return &RewireRing{n: n, beta: beta, name: fmt.Sprintf("rewire-ring(%g)", beta)}
}

// Start materializes the round-0 edge set.
func (rr *RewireRing) Start(seed uint64) {
	rr.r.Reseed(seed)
	if cap(rr.target) < rr.n {
		rr.target = make([]int32, rr.n)
	}
	rr.target = rr.target[:rr.n]
	rr.redraw()
	// redraw's re-target count diffed against whatever a pooled instance
	// held before; round 0 is a draw, not a change, so Flips starts at 0.
	rr.flips = 0
	rr.started = true
}

// Advance redraws every node's clockwise edge for the new round.
func (rr *RewireRing) Advance(round int) {
	if !rr.started {
		panic("topo: RewireRing.Advance before Start")
	}
	rr.redraw()
}

// redraw resamples each node's edge and rebuilds the adjacency. A reciprocal
// pair (u and v picking each other) is one edge, owned by the smaller
// endpoint, so neighbor lists stay duplicate-free.
func (rr *RewireRing) redraw() {
	n := rr.n
	changed := 0
	for u := 0; u < n; u++ {
		v := u + 1
		if v == n {
			v = 0
		}
		if rr.r.Bool(rr.beta) {
			v = rr.r.IntnExcept(n, u)
		}
		if rr.target[u] != int32(v) {
			changed++
		}
		rr.target[u] = int32(v)
	}
	rr.flips = changed
	rr.adj.reset(n)
	for u := 0; u < n; u++ {
		v := int(rr.target[u])
		if rr.owns(u, v) {
			rr.adj.off[u+1]++
			rr.adj.off[v+1]++
		}
	}
	rr.adj.finish(n)
	for u := 0; u < n; u++ {
		v := int(rr.target[u])
		if rr.owns(u, v) {
			rr.adj.add(int32(u), int32(v))
		}
	}
}

// owns reports whether u's drawn edge (u, v) is materialized from u's side:
// always, unless v drew the reciprocal edge and has the smaller ID.
func (rr *RewireRing) owns(u, v int) bool {
	return !(int(rr.target[v]) == u && v < u)
}

// N returns the node count.
func (rr *RewireRing) N() int { return rr.n }

// CanSend reports whether the edge (u, v) is present this round; self-sends
// are always allowed.
func (rr *RewireRing) CanSend(u, v int) bool {
	if u < 0 || u >= rr.n || v < 0 || v >= rr.n {
		return false
	}
	if u == v {
		return true
	}
	return int(rr.target[u]) == v || int(rr.target[v]) == u
}

// SamplePeer draws uniformly from u's current neighbor set.
func (rr *RewireRing) SamplePeer(u int, r *rng.Source) int { return rr.adj.samplePeer(u, r) }

// Degree returns u's current degree.
func (rr *RewireRing) Degree(u int) int { return len(rr.adj.neighbors(u)) }

// Name identifies the process and its rewiring rate in reports.
func (rr *RewireRing) Name() string { return rr.name }

// Flips reports how many clockwise edges the last Advance re-targeted.
func (rr *RewireRing) Flips() int { return rr.flips }
