package topo

import (
	"testing"

	"repro/internal/rng"
)

// TestPairSetDifferential drives the hash set through a long random
// Add/Remove/Has trace against a plain map, over a small key space so probe
// runs collide and deletions routinely punch holes inside runs — the regime
// backward-shift deletion must survive. Add's report of whether the key was
// new is checked against the map too.
func TestPairSetDifferential(t *testing.T) {
	r := rng.New(99)
	var s pairSet
	ref := make(map[uint64]bool)
	const keySpace = 300 // small enough to revisit keys constantly
	for step := 0; step < 200000; step++ {
		k := uint64(r.Intn(keySpace)) + 1 // keys must be nonzero
		switch r.Intn(3) {
		case 0:
			if got, want := s.Add(k), !ref[k]; got != want {
				t.Fatalf("step %d: Add(%d) = %v, want %v", step, k, got, want)
			}
			ref[k] = true
		case 1:
			s.Remove(k)
			delete(ref, k)
		default:
			if s.Has(k) != ref[k] {
				t.Fatalf("step %d: Has(%d) = %v, want %v", step, k, s.Has(k), ref[k])
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
		}
	}
	for k := uint64(1); k <= keySpace; k++ {
		if s.Has(k) != ref[k] {
			t.Fatalf("final: Has(%d) = %v, want %v", k, s.Has(k), ref[k])
		}
	}
}

// TestPairSetDeleteRestoresLayout pins the tombstone-free claim in its
// strongest form: removing a key leaves the table byte-identical to a run
// that never inserted it, for every choice of removed key in a colliding
// workload.
func TestPairSetDeleteRestoresLayout(t *testing.T) {
	r := rng.New(7)
	keys := make([]uint64, 40)
	for i := range keys {
		keys[i] = uint64(r.Intn(1<<10)) + 1
	}
	for skip := range keys {
		var with, without pairSet
		for _, k := range keys {
			with.Add(k)
		}
		with.Remove(keys[skip])
		dup := false
		for i, k := range keys {
			if i != skip && k == keys[skip] {
				dup = true
			}
		}
		if dup {
			continue // the key survives via its duplicate; layouts legitimately differ
		}
		for i, k := range keys {
			if i != skip {
				without.Add(k)
			}
		}
		if len(with.slots) != len(without.slots) {
			t.Fatalf("skip %d: table sizes differ (%d vs %d)", skip, len(with.slots), len(without.slots))
		}
		for i := range with.slots {
			if with.slots[i] != without.slots[i] {
				t.Fatalf("skip %d: slot %d differs after delete (%d vs %d)", skip, i, with.slots[i], without.slots[i])
			}
		}
	}
}

// TestPairSetSteadyStateAllocs pins the pooled-reuse contract: once a table
// has grown to its high-water capacity, churn at constant size and
// Clear/refill cycles allocate nothing.
func TestPairSetSteadyStateAllocs(t *testing.T) {
	var s pairSet
	const live = 1000
	for k := uint64(1); k <= live; k++ {
		s.Add(k)
	}
	next := uint64(live + 1)
	allocs := testing.AllocsPerRun(200, func() {
		s.Remove(next - live) // oldest live key
		s.Add(next)
		next++
	})
	if allocs != 0 {
		t.Errorf("constant-size churn allocates %.1f objects per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		s.Clear()
		for k := uint64(1); k <= live; k++ {
			s.Add(k)
		}
	})
	if allocs != 0 {
		t.Errorf("Clear/refill cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestPairSetReserve checks that Reserve pre-sizes for the requested load and
// that subsequent fills up to that count do not grow the table.
func TestPairSetReserve(t *testing.T) {
	var s pairSet
	s.Reserve(10000)
	before := len(s.slots)
	if before == 0 || 4*10000 > 3*before {
		t.Fatalf("Reserve(10000) left %d slots, above the ¾ load ceiling", before)
	}
	for k := uint64(1); k <= 10000; k++ {
		s.Add(k)
	}
	if len(s.slots) != before {
		t.Fatalf("table grew from %d to %d slots despite Reserve", before, len(s.slots))
	}
}
