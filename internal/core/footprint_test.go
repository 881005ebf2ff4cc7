package core

import (
	"runtime"
	"testing"

	"repro/internal/topo"
)

// heapAlloc returns the live-heap size after a forced collection, so deltas
// measure retained structures rather than transient garbage.
func heapAlloc() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestAgentFootprint gates the bytes an agent holds, as
// TestEdgeMarkovianHeapFootprint gates the graph's: the heap a RunPool retains
// after one trial at n = 2¹⁴ (q = 42), divided by n. What an agent holds is
// its struct, its q intentions, W (sized for q + 4√q votes), its commitment
// log (q voters, q declaration headers, q faulty marks) and its RNG, ≈ 4.4 KB.
// One pre-built vote payload per slot (q × 128 bytes, each mostly a copy of
// Params) would add 5.4 KB on its own.
func TestAgentFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 2¹⁴ footprint check skipped in -short mode")
	}
	const (
		n      = 1 << 14
		budget = 5632 // bytes per agent: 5.5 KiB
	)
	p := MustParams(n, 2, DefaultGamma)
	colors := UniformColors(n, 2)
	net := topo.NewComplete(n)
	before := heapAlloc()
	pool := &RunPool{}
	res, err := Run(RunConfig{Params: p, Colors: colors, Topology: net, Seed: 1, Workers: 1, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Failed {
		t.Fatal("fault-free trial failed")
	}
	perAgent := (heapAlloc() - before) / n
	t.Logf("n = %d, q = %d: the pool retains %d bytes per agent (budget %d)", n, p.Q, perAgent, budget)
	if perAgent > budget {
		t.Fatalf("a pooled agent retains %d bytes after one trial, budget %d", perAgent, budget)
	}
	runtime.KeepAlive(pool)
}
