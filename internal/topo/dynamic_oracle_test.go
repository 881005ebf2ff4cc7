package topo

import (
	"testing"

	"repro/internal/rng"
)

// This file pins the hash-set membership refactor against a presence-bitset
// oracle: the pre-refactor engine kept one bit per potential pair, and
// swapping that bitset for the O(present-edges) pairSet must not change a
// single observable bit — same seed, same edge sets, same SamplePeer streams,
// round for round, including across pooled reuse. The oracle below is a
// faithful reimplementation of the bitset engine (identical skip-sampling
// draws, identical swap-remove bookkeeping, dense membership); it is Θ(n²/64)
// memory and exists only as a small-n test reference.

// bitsetRefEdgeMarkovian mirrors EdgeMarkovian except that membership is a
// dense presence bitset over pair indices.
type bitsetRefEdgeMarkovian struct {
	n            int
	birth, death float64
	r            rng.Source
	bits         []uint64
	edges        []uint64
	adj          [][]int32
	deadPos      []int32
	born         []uint64
}

func newBitsetRef(n int, birth, death float64) *bitsetRefEdgeMarkovian {
	return &bitsetRefEdgeMarkovian{n: n, birth: birth, death: death}
}

func (b *bitsetRefEdgeMarkovian) pairs() int { return b.n * (b.n - 1) / 2 }

func (b *bitsetRefEdgeMarkovian) pairIndex(u, v int) int {
	return u*(2*b.n-u-1)/2 + (v - u - 1)
}

// pairAt decodes every index in closed form, where the engine's scans walk a
// pairCursor, and the oracle draws through rng.SkipPast(p) where the engine
// draws through prepared rng.Geo laws: matching the engine round for round
// pins both of those as bit-identical to what they replaced, on top of the
// membership representation under test. The closed form itself is pinned by
// its round-trip test.
func (b *bitsetRefEdgeMarkovian) pairAt(i int) (u, v int32) {
	e := EdgeMarkovian{n: b.n}
	return e.pairAt(i)
}

func (b *bitsetRefEdgeMarkovian) start(seed uint64) {
	b.r.Reseed(seed)
	words := (b.pairs() + 63) / 64
	if b.bits == nil {
		b.bits = make([]uint64, words)
		b.adj = make([][]int32, b.n)
	}
	clear(b.bits)
	for u := range b.adj {
		b.adj[u] = b.adj[u][:0]
	}
	b.edges = b.edges[:0]
	pi := b.birth / (b.birth + b.death)
	for i, p := b.r.SkipPast(0, pi), uint64(b.pairs()); i < p; i = b.r.SkipPast(i+1, pi) {
		b.insert(b.pairAt(int(i)))
	}
}

func (b *bitsetRefEdgeMarkovian) advance() {
	b.born = b.born[:0]
	for i, p := b.r.SkipPast(0, b.birth), uint64(b.pairs()); i < p; i = b.r.SkipPast(i+1, b.birth) {
		if b.bits[i>>6]&(1<<(i&63)) == 0 {
			u, v := b.pairAt(int(i))
			b.born = append(b.born, pack(u, v))
		}
	}
	b.deadPos = b.deadPos[:0]
	for i, p := b.r.SkipPast(0, b.death), uint64(len(b.edges)); i < p; i = b.r.SkipPast(i+1, b.death) {
		b.deadPos = append(b.deadPos, int32(i))
	}
	for k := len(b.deadPos) - 1; k >= 0; k-- {
		b.removeAt(int(b.deadPos[k]))
	}
	for _, pk := range b.born {
		b.insert(unpack(pk))
	}
}

func (b *bitsetRefEdgeMarkovian) insert(u, v int32) {
	i := b.pairIndex(int(u), int(v))
	b.bits[i>>6] |= 1 << (i & 63)
	b.adj[u] = append(b.adj[u], v)
	b.adj[v] = append(b.adj[v], u)
	b.edges = append(b.edges, pack(u, v))
}

func (b *bitsetRefEdgeMarkovian) removeAt(pos int) {
	u, v := unpack(b.edges[pos])
	i := b.pairIndex(int(u), int(v))
	b.bits[i>>6] &^= 1 << (i & 63)
	b.dropNeighbor(u, v)
	b.dropNeighbor(v, u)
	last := len(b.edges) - 1
	b.edges[pos] = b.edges[last]
	b.edges = b.edges[:last]
}

func (b *bitsetRefEdgeMarkovian) dropNeighbor(u, v int32) {
	ns := b.adj[u]
	for k, w := range ns {
		if w == v {
			last := len(ns) - 1
			ns[k] = ns[last]
			b.adj[u] = ns[:last]
			return
		}
	}
	panic("oracle adjacency desynchronized")
}

func (b *bitsetRefEdgeMarkovian) canSend(u, v int) bool {
	if u == v {
		return true
	}
	if u > v {
		u, v = v, u
	}
	i := b.pairIndex(u, v)
	return b.bits[i>>6]&(1<<(i&63)) != 0
}

func (b *bitsetRefEdgeMarkovian) samplePeer(u int, r *rng.Source) int {
	ns := b.adj[u]
	if len(ns) == 0 {
		return u
	}
	return int(ns[r.Intn(len(ns))])
}

// TestEdgeMarkovianMatchesBitsetOracle runs the production engine and the
// bitset oracle in lockstep across sizes, rates, seeds, and pooled reuse
// (repeated Start on the same warmed instances), requiring byte-identical
// edge sets and SamplePeer streams every round.
func TestEdgeMarkovianMatchesBitsetOracle(t *testing.T) {
	cases := []struct {
		n            int
		birth, death float64
	}{
		{2, 0.5, 0.5},
		{17, 0.05, 0.2},
		{33, 0.3, 0.3},
		{64, 0.01, 0.5},
		{97, 0.9, 0.1}, // dense regime: long probe runs in the hash set
	}
	for _, tc := range cases {
		g := NewEdgeMarkovian(tc.n, tc.birth, tc.death)
		ref := newBitsetRef(tc.n, tc.birth, tc.death)
		// Three Starts per instance pair: pooled reuse must reset the hash
		// set as completely as clearing the bitset did.
		for run := 0; run < 3; run++ {
			seed := uint64(31*run) + 7
			g.Start(seed)
			ref.start(seed)
			rg, rr := rng.New(seed^0xabcd), rng.New(seed^0xabcd)
			for round := 0; round <= 8; round++ {
				if round > 0 {
					g.Advance(round)
					ref.advance()
				}
				if len(g.edges) != len(ref.edges) {
					t.Fatalf("n=%d b=%g d=%g run %d round %d: edge count %d vs oracle %d",
						tc.n, tc.birth, tc.death, run, round, len(g.edges), len(ref.edges))
				}
				for i := range g.edges {
					if g.edges[i].pk != ref.edges[i] {
						t.Fatalf("n=%d b=%g d=%g run %d round %d: edge list diverges at %d",
							tc.n, tc.birth, tc.death, run, round, i)
					}
				}
				for u := 0; u < tc.n; u++ {
					for v := u + 1; v < tc.n; v++ {
						if g.CanSend(u, v) != ref.canSend(u, v) {
							t.Fatalf("n=%d b=%g d=%g run %d round %d: CanSend(%d,%d) diverges",
								tc.n, tc.birth, tc.death, run, round, u, v)
						}
					}
					for k := 0; k < 3; k++ {
						if got, want := g.SamplePeer(u, rg), ref.samplePeer(u, rr); got != want {
							t.Fatalf("n=%d b=%g d=%g run %d round %d: SamplePeer(%d) = %d, oracle %d",
								tc.n, tc.birth, tc.death, run, round, u, got, want)
						}
					}
				}
			}
		}
	}
}
