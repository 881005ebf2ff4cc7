package core

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// logModel is the map-based oracle CommitmentLog is checked against: the
// representation the log had before it became flat vectors, kept here so the
// vectors' behaviour is pinned to it rather than to themselves.
type logModel struct {
	declared map[int32][]Intent
	faulty   map[int32]bool
}

func newLogModel() *logModel {
	return &logModel{declared: map[int32][]Intent{}, faulty: map[int32]bool{}}
}

func (m *logModel) known(v int32) bool {
	_, ok := m.declared[v]
	return ok || m.faulty[v]
}

func (m *logModel) record(v int32, in []Intent) bool {
	if m.known(v) {
		return false
	}
	m.declared[v] = in
	return true
}

func (m *logModel) markFaulty(v int32) {
	if !m.known(v) {
		m.faulty[v] = true
	}
}

func (m *logModel) expectedVotesFor(v, target int32) []uint64 {
	var out []uint64
	for _, in := range m.declared[v] {
		if in.Z == target {
			out = append(out, in.H)
		}
	}
	slices.Sort(out)
	return out
}

// sameSlice reports whether two intention lists are the very same slice —
// binding means the first list recorded is the one handed back, not a copy
// and not a later declaration with equal contents.
func sameSlice(a, b []Intent) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func TestCommitmentLogMatchesMapModel(t *testing.T) {
	const ids = 12 // small id space, so repeats (the binding rule) are common
	r := rng.New(7)
	l, m := NewCommitmentLog(), newLogModel()
	check := func(step int) {
		t.Helper()
		if got, want := l.Size(), len(m.declared)+len(m.faulty); got != want {
			t.Fatalf("step %d: Size = %d, model %d", step, got, want)
		}
		for v := int32(0); v < ids; v++ {
			if l.Known(v) != m.known(v) || l.Faulty(v) != m.faulty[v] {
				t.Fatalf("step %d voter %d: Known/Faulty = %v/%v, model %v/%v",
					step, v, l.Known(v), l.Faulty(v), m.known(v), m.faulty[v])
			}
			got, ok := l.Declared(v)
			want, wok := m.declared[v]
			if ok != wok || !sameSlice(got, want) {
				t.Fatalf("step %d voter %d: Declared = %v, %v; model %v, %v", step, v, got, ok, want, wok)
			}
			if ok && m.faulty[v] {
				t.Fatalf("step %d voter %d: both declared and faulty", step, v)
			}
			for target := int32(0); target < 3; target++ {
				if got, want := l.ExpectedVotesFor(v, target), m.expectedVotesFor(v, target); !slices.Equal(got, want) {
					t.Fatalf("step %d: ExpectedVotesFor(%d, %d) = %v, model %v", step, v, target, got, want)
				}
			}
		}
	}
	for step := 0; step < 4000; step++ {
		v := int32(r.Intn(ids))
		switch op := r.Intn(20); {
		case op == 0:
			l.Reset()
			m = newLogModel()
		case op < 6:
			l.MarkFaulty(v)
			m.markFaulty(v)
		default:
			in := make([]Intent, 1+r.Intn(4))
			for i := range in {
				in[i] = Intent{H: r.Uint64n(5) + 1, Z: int32(r.Intn(3))}
			}
			if got, want := l.Record(v, in), m.record(v, in); got != want {
				t.Fatalf("step %d: Record(%d) = %v, model %v", step, v, got, want)
			}
		}
		check(step)
	}
}

func TestCommitmentLogResetKeepsCapacityDropsReferences(t *testing.T) {
	l := NewCommitmentLog()
	fill := func() {
		for v := int32(0); v < 8; v++ {
			l.Record(v, []Intent{{H: uint64(v) + 1, Z: 0}})
			l.MarkFaulty(100 + v)
		}
	}
	fill()
	voters, declared, faulty := cap(l.voters), cap(l.declared), cap(l.faulty)
	l.Reset()
	if l.Size() != 0 || l.Known(3) || l.Faulty(103) {
		t.Fatal("Reset left verdicts behind")
	}
	if cap(l.voters) != voters || cap(l.declared) != declared || cap(l.faulty) != faulty {
		t.Fatal("Reset gave up vector capacity")
	}
	// A pooled log must not keep the previous run's intention lists alive:
	// every slot of the backing array, not just the visible length, is nil.
	for i, in := range l.declared[:cap(l.declared)] {
		if in != nil {
			t.Fatalf("Reset left slot %d holding the previous run's intention list", i)
		}
	}
	in := []Intent{{H: 1, Z: 0}}
	if allocs := testing.AllocsPerRun(50, func() {
		for v := int32(0); v < 8; v++ {
			l.Record(v, in)
			l.MarkFaulty(100 + v)
		}
		l.Reset()
	}); allocs != 0 {
		t.Fatalf("refilling a reset log allocates %v objects, want 0", allocs)
	}
}

// TestVerifyCertificateOrderIndependent pins what the log's former map
// representation exercised only by accident of Go's randomized iteration: the
// verdict on a certificate must not depend on the order in which the verifier
// happened to learn about the voters. Every arrival order of the same
// verdicts must yield the same sentinel (strict, live-retarget) and the same
// accept/reject (relaxed), on both sides of the relaxed slack.
func TestVerifyCertificateOrderIndependent(t *testing.T) {
	base := MustParams(16, 2, 2) // q = 8
	relaxed1, err := base.WithProtocol(Protocol{Variant: ProtocolRelaxed, MinVotes: base.Q - 1})
	if err != nil {
		t.Fatal(err)
	}
	relaxed2, err := base.WithProtocol(Protocol{Variant: ProtocolRelaxed, MinVotes: base.Q - 2})
	if err != nil {
		t.Fatal(err)
	}
	retarget, err := base.WithProtocol(Protocol{Variant: ProtocolLiveRetarget})
	if err != nil {
		t.Fatal(err)
	}

	const owner = int32(2)
	// The verdicts the verifier holds: five declarations and one faulty mark
	// (a nil list). Voters 3–5 commit votes to the owner, 6 and 7 do not.
	type verdict struct {
		voter   int32
		intents []Intent
	}
	verdicts := []verdict{
		{3, []Intent{{H: 11, Z: owner}, {H: 12, Z: 9}}},
		{4, []Intent{{H: 21, Z: owner}, {H: 22, Z: owner}}},
		{5, []Intent{{H: 31, Z: 9}, {H: 32, Z: owner}}},
		{6, []Intent{{H: 41, Z: 9}}},
		{7, []Intent{{H: 51, Z: 10}, {H: 52, Z: 11}}},
		{8, nil},
	}
	honest := []WEntry{{3, 11}, {4, 21}, {4, 22}, {5, 32}, {12, 77}}
	without := func(w []WEntry, voter int32) []WEntry {
		return slices.DeleteFunc(slices.Clone(w), func(e WEntry) bool { return e.Voter == voter })
	}
	altered := slices.Clone(honest)
	altered[0].Value = 13
	scenarios := []struct {
		name string
		w    []WEntry
	}{
		{"honest", honest},
		{"one altered", altered},
		{"one missing", without(honest, 5)},
		{"two missing", without(without(honest, 5), 3)},
		{"altered and missing", without(altered, 4)},
		{"vote from faulty-marked", append(slices.Clone(honest), WEntry{8, 5})},
		{"retargeted", append(without(honest, 5), WEntry{5, 31})},
	}
	variants := []struct {
		name string
		p    Params
	}{{"strict", base}, {"live-retarget", retarget}, {"relaxed slack 1", relaxed1}, {"relaxed slack 2", relaxed2}}

	build := func(order []int) *CommitmentLog {
		l := NewCommitmentLog()
		for _, i := range order {
			if v := verdicts[i]; v.intents == nil {
				l.MarkFaulty(v.voter)
			} else {
				l.Record(v.voter, v.intents)
			}
		}
		return l
	}
	var orders [][]int
	var permute func(prefix, rest []int)
	permute = func(prefix, rest []int) {
		if len(rest) == 0 {
			orders = append(orders, slices.Clone(prefix))
			return
		}
		for i := range rest {
			next := slices.Delete(slices.Clone(rest), i, i+1)
			permute(append(prefix, rest[i]), next)
		}
	}
	permute(nil, []int{0, 1, 2, 3, 4, 5})
	if len(orders) != 720 {
		t.Fatalf("generated %d arrival orders, want 6! = 720", len(orders))
	}

	rejected := 0
	for _, vr := range variants {
		for _, sc := range scenarios {
			cert := &Certificate{P: vr.p, K: SumVotesMod(sc.w, vr.p.M), W: sc.w, Color: 1, Owner: owner}
			want := VerifyCertificate(vr.p, cert, build(orders[0]))
			if want != nil {
				rejected++
			}
			for _, order := range orders[1:] {
				// Sentinels are compared by identity: a different reason for
				// the same rejection is an order dependence too.
				if got := VerifyCertificate(vr.p, cert, build(order)); got != want {
					t.Fatalf("%s, %s: arrival order %v gives %v, order %v gave %v",
						vr.name, sc.name, order, got, orders[0], want)
				}
			}
		}
	}
	// The table must straddle accept and reject, or it pins nothing.
	if total := len(variants) * len(scenarios); rejected == 0 || rejected == total {
		t.Fatalf("%d of %d cells rejected: the scenarios do not exercise both verdicts", rejected, total)
	}
}
