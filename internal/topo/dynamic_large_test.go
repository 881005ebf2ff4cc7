package topo

import (
	"math"
	"runtime"
	"testing"
)

// This file carries the large-n acceptance checks for the O(edges) membership
// refactor: heap footprint proportional to present edges (not pairs), and a
// million-node process that starts, advances, and stays allocation-free per
// round. Both are skipped under -short; the CI test job runs them.

// heapAlloc returns the live-heap size after a forced collection, so deltas
// measure retained structures rather than transient garbage.
func heapAlloc() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// edgeMarkovianAtDegree builds a process with stationary mean degree deg.
func edgeMarkovianAtDegree(n int, deg float64, death float64) *EdgeMarkovian {
	pi := deg / float64(n-1)
	return NewEdgeMarkovian(n, death*pi/(1-pi), death)
}

// TestEdgeMarkovianHeapFootprint pins the tentpole memory claim with
// runtime.MemStats: an n = 10⁵ process at degree 64 must retain a few
// multiples of edge-count × entry-size, where an entry spans the membership
// table (≤ 16 bytes per edge at maximum load, doubled table worst case),
// the 16-byte edge-table record, and two int32 neighbor-list slots plus slab
// headroom. The dense presence bitset this replaced would alone retain
// n²/8 = 1.25 GB and fail the budget by an order of magnitude.
func TestEdgeMarkovianHeapFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n footprint check skipped in -short mode")
	}
	const (
		n   = 100_000
		deg = 64.0
	)
	edges := deg * n / 2
	// Worst-case bytes per present edge: 2×8 for a just-doubled hash table,
	// 16 for the edge table (Start reserves it for the stationary count, so
	// it does not double), 2×4 adjacency entries — plus the adjacency slab's
	// variance headroom (cap0/mean ≈ 1.75). Budget three multiples of a
	// 48-byte entry to stay assertive but unflaky.
	budget := int64(3 * 48 * edges)
	before := heapAlloc()
	g := edgeMarkovianAtDegree(n, deg, 0.002)
	g.Start(1)
	delta := heapAlloc() - before
	if delta > budget {
		t.Fatalf("n=%d degree-%g process retains %d MiB, budget %d MiB (Θ(n²) structure reintroduced?)",
			n, deg, delta>>20, budget>>20)
	}
	if got, want := float64(g.EdgeCount()), edges; math.Abs(got-want) > 6*math.Sqrt(want) {
		t.Fatalf("round-0 edge count %d, want ≈ %d", g.EdgeCount(), int(want))
	}
	runtime.KeepAlive(g)
}

// TestEdgeMarkovianMillionNodes is the acceptance check at the lifted cap:
// n = 2²⁰ (degree ≈ 64) Starts, holds ~2²⁵ edges, Advances with Θ(flips)
// work, and allocates nothing per round once warm.
func TestEdgeMarkovianMillionNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node check skipped in -short mode")
	}
	const n = 1 << 20
	g := edgeMarkovianAtDegree(n, 64, 0.002)
	g.Start(3)
	want := 64.0 * n / 2
	if got := float64(g.EdgeCount()); math.Abs(got-want) > 6*math.Sqrt(want) {
		t.Fatalf("round-0 edge count %d, want ≈ %d", g.EdgeCount(), int(want))
	}
	round := 1
	for ; round <= 5; round++ { // warm scratch buffers to their high-water marks
		g.Advance(round)
	}
	if g.Flips() == 0 {
		t.Fatal("no flips at death=0.002 over 2²⁵ edges")
	}
	allocs := testing.AllocsPerRun(3, func() {
		g.Advance(round)
		round++
	})
	if allocs != 0 {
		t.Errorf("million-node Advance allocates %.1f objects per round after warm-up, want 0", allocs)
	}
}
