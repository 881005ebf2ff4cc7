package topo

// pairSet is an open-addressing hash set of packed pair ids (pack(u, v) with
// u < v) — the O(present-edges) membership structure behind the dynamic
// processes' O(1) CanSend. It replaces the dense presence bitset, whose n²/8
// bytes were the last Θ(n²) structure in the package and the reason the
// dynamic cap sat at n = 32768.
//
// Design, in the order the constraints arrive:
//
//   - Keys are nonzero: pack(0, 0) is not a valid edge (endpoints satisfy
//     u < v), so the zero word doubles as the empty-slot sentinel and a
//     cleared table is all-zeros — Clear is one memclr, no per-slot state.
//   - Linear probing with a strong 64→64 mix (the splitmix64 finalizer) keeps
//     probe sequences short at the ¾ maximum load factor; the table doubles
//     when load would exceed it, so lookups stay O(1) expected.
//   - Deletion is tombstone-free backward-shift: after removing a key, the
//     probe run behind it is compacted by moving back every entry whose home
//     slot lies at or before the hole. No tombstones means no slow drift of
//     probe lengths under the birth/death churn the edge-Markovian process
//     generates — a Remove leaves the table exactly as if the key had never
//     been inserted, so load and probe cost depend only on the live keys.
//   - The only allocation is table growth. A pooled process that has reached
//     its high-water capacity re-Starts and Advances with zero allocations
//     (Clear retains capacity), which is what the allocation-budget tests pin.
type pairSet struct {
	slots []uint64 // power-of-two length; 0 = empty
	n     int      // live keys
}

// hashPair is the splitmix64 finalizer: a bijective 64→64 mix whose low bits
// depend on every input bit, as linear probing's slot = hash & mask requires.
// The raw packed key is far too regular to probe with directly (v lives in
// the low word, so consecutive edges of one node would collide in runs).
func hashPair(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Len returns the number of keys present.
func (s *pairSet) Len() int { return s.n }

// Has reports whether key k is present. k must be nonzero.
func (s *pairSet) Has(k uint64) bool {
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := hashPair(k) & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// Add inserts key k and reports whether it was absent (a present key is left
// as is), so a caller that must know both pays one probe. k must be nonzero.
func (s *pairSet) Add(k uint64) bool {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	i := hashPair(k) & mask
	for s.slots[i] != 0 {
		if s.slots[i] == k {
			return false
		}
		i = (i + 1) & mask
	}
	s.slots[i] = k
	s.n++
	return true
}

// Remove deletes key k (a no-op if absent), compacting the probe run behind
// it by backward shift so the table stays tombstone-free.
func (s *pairSet) Remove(k uint64) {
	if len(s.slots) == 0 {
		return
	}
	mask := uint64(len(s.slots) - 1)
	i := hashPair(k) & mask
	for s.slots[i] != k {
		if s.slots[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	// Walk the run after the hole; an entry may move back into the hole iff
	// its home slot is cyclically at or before the hole — equivalently its
	// current displacement covers the hole: (j − home) mod cap ≥ (j − i) mod cap.
	j := i
	for {
		j = (j + 1) & mask
		v := s.slots[j]
		if v == 0 {
			break
		}
		if (j-hashPair(v))&mask >= (j-i)&mask {
			s.slots[i] = v
			i = j
		}
	}
	s.slots[i] = 0
	s.n--
}

// Clear empties the set, retaining capacity for pooled reuse.
func (s *pairSet) Clear() {
	clear(s.slots)
	s.n = 0
}

// Reserve grows the table so it can hold at least want keys without further
// growth — Start calls it with the expected edge count so the round-0 fill
// does not rehash log(edges) times.
func (s *pairSet) Reserve(want int) {
	for 4*want > 3*len(s.slots) {
		s.grow()
	}
}

// grow doubles the table (minimum 16 slots) and reinserts every key.
func (s *pairSet) grow() {
	size := 16
	if len(s.slots) > 0 {
		size = 2 * len(s.slots)
	}
	old := s.slots
	s.slots = make([]uint64, size)
	mask := uint64(size - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := hashPair(k) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = k
	}
}
