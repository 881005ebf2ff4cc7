package core

import (
	"math"
	"testing"
)

func TestNewParamsValid(t *testing.T) {
	p, err := NewParams(1024, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 1024 || p.NumColors != 2 || p.Gamma != 3 {
		t.Fatalf("params = %+v", p)
	}
	if p.Q != 30 { // ceil(3·log2(1024)) = 30
		t.Fatalf("Q = %d, want 30", p.Q)
	}
	if p.M != 1024*1024*1024 {
		t.Fatalf("M = %d, want n³", p.M)
	}
	if p.TotalRounds() != 4*30+1 {
		t.Fatalf("TotalRounds = %d", p.TotalRounds())
	}
}

func TestNewParamsQCeiling(t *testing.T) {
	p := MustParams(100, 2, 1)
	want := int(math.Ceil(math.Log2(100)))
	if p.Q != want {
		t.Fatalf("Q = %d, want %d", p.Q, want)
	}
}

func TestNewParamsErrors(t *testing.T) {
	cases := []struct {
		n, colors int
		gamma     float64
	}{
		{1, 1, 1},        // n too small
		{MaxN + 1, 2, 1}, // n too large
		{10, 0, 1},       // no colors
		{10, 11, 1},      // more colors than nodes
		{10, 2, 0},       // gamma zero
		{10, 2, -1},      // gamma negative
	}
	for _, c := range cases {
		if _, err := NewParams(c.n, c.colors, c.gamma); err == nil {
			t.Errorf("NewParams(%d,%d,%v) accepted", c.n, c.colors, c.gamma)
		}
	}
}

func TestMustParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParams did not panic on invalid input")
		}
	}()
	MustParams(0, 1, 1)
}

func TestPhaseOfBoundaries(t *testing.T) {
	p := MustParams(16, 2, 1) // Q = 4
	if p.Q != 4 {
		t.Fatalf("Q = %d, want 4", p.Q)
	}
	cases := []struct {
		round int
		want  Phase
	}{
		{0, PhaseCommitment}, {3, PhaseCommitment},
		{4, PhaseVoting}, {7, PhaseVoting},
		{8, PhaseFindMin}, {11, PhaseFindMin},
		{12, PhaseCoherence}, {15, PhaseCoherence},
		{16, PhaseVerification}, {100, PhaseVerification},
	}
	for _, c := range cases {
		if got := p.PhaseOf(c.round); got != c.want {
			t.Errorf("PhaseOf(%d) = %v, want %v", c.round, got, c.want)
		}
	}
}

func TestWithProtocolValidation(t *testing.T) {
	p := MustParams(16, 2, 1) // Q = 4
	cases := []struct {
		name  string
		proto Protocol
		ok    bool
	}{
		{"zero value", Protocol{}, true},
		{"explicit baseline", Protocol{Variant: ProtocolBaseline}, true},
		{"baseline stray passes", Protocol{Passes: 2}, false},
		{"baseline stray minVotes", Protocol{MinVotes: 2}, false},
		{"live-retarget", Protocol{Variant: ProtocolLiveRetarget}, true},
		{"live-retarget stray param", Protocol{Variant: ProtocolLiveRetarget, Passes: 2}, false},
		{"retransmit default passes", Protocol{Variant: ProtocolRetransmit}, true},
		{"retransmit explicit passes", Protocol{Variant: ProtocolRetransmit, Passes: MaxVotingPasses}, true},
		{"retransmit passes too large", Protocol{Variant: ProtocolRetransmit, Passes: MaxVotingPasses + 1}, false},
		{"retransmit passes too small", Protocol{Variant: ProtocolRetransmit, Passes: 1}, false},
		{"retransmit stray minVotes", Protocol{Variant: ProtocolRetransmit, MinVotes: 2}, false},
		{"relaxed", Protocol{Variant: ProtocolRelaxed, MinVotes: 4}, true},
		{"relaxed minVotes floor", Protocol{Variant: ProtocolRelaxed, MinVotes: 1}, true},
		{"relaxed minVotes missing", Protocol{Variant: ProtocolRelaxed}, false},
		{"relaxed minVotes over q", Protocol{Variant: ProtocolRelaxed, MinVotes: 5}, false},
		{"relaxed stray passes", Protocol{Variant: ProtocolRelaxed, MinVotes: 2, Passes: 2}, false},
		{"unknown variant", Protocol{Variant: "paxos"}, false},
	}
	for _, c := range cases {
		got, err := p.WithProtocol(c.proto)
		if (err == nil) != c.ok {
			t.Errorf("%s: WithProtocol(%+v) err = %v, want ok=%v", c.name, c.proto, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		switch c.proto.Variant {
		case "", ProtocolBaseline:
			if got.Proto != (Protocol{}) {
				t.Errorf("%s: baseline not normalized to the zero value: %+v", c.name, got.Proto)
			}
		case ProtocolRetransmit:
			if got.Proto.Passes < 2 {
				t.Errorf("%s: retransmit passes not defaulted: %+v", c.name, got.Proto)
			}
		}
	}
}

// TestVariantSchedule pins the retransmit schedule arithmetic: the Voting
// phase repeats its q-round push schedule Passes times, everything after it
// shifts, and the baseline schedule (and every other variant's) stays at
// 4q+1 rounds exactly as the paper defines it.
func TestVariantSchedule(t *testing.T) {
	base := MustParams(16, 2, 1) // Q = 4
	if got := base.TotalRounds(); got != 17 {
		t.Fatalf("baseline TotalRounds = %d, want 17", got)
	}
	lr, err := base.WithProtocol(Protocol{Variant: ProtocolLiveRetarget})
	if err != nil {
		t.Fatal(err)
	}
	if got := lr.TotalRounds(); got != 17 {
		t.Fatalf("live-retarget TotalRounds = %d, want 17 (schedule must not change)", got)
	}
	rt, err := base.WithProtocol(Protocol{Variant: ProtocolRetransmit, Passes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.TotalRounds(); got != (3+3)*4+1 {
		t.Fatalf("retransmit TotalRounds = %d, want %d", got, (3+3)*4+1)
	}
	cases := []struct {
		round int
		want  Phase
	}{
		{0, PhaseCommitment}, {3, PhaseCommitment},
		{4, PhaseVoting}, {7, PhaseVoting}, // pass 1
		{8, PhaseVoting}, {11, PhaseVoting}, // pass 2
		{12, PhaseVoting}, {15, PhaseVoting}, // pass 3
		{16, PhaseFindMin}, {19, PhaseFindMin},
		{20, PhaseCoherence}, {23, PhaseCoherence},
		{24, PhaseVerification}, {100, PhaseVerification},
	}
	for _, c := range cases {
		if got := rt.PhaseOf(c.round); got != c.want {
			t.Errorf("retransmit PhaseOf(%d) = %v, want %v", c.round, got, c.want)
		}
	}
	// The slot (which intention a voting round pushes) wraps per pass, so
	// every pass replays the same q declared votes in order.
	for _, c := range []struct{ round, slot int }{
		{4, 0}, {7, 3}, {8, 0}, {11, 3}, {12, 0}, {15, 3},
	} {
		if got := rt.votingSlot(c.round); got != c.slot {
			t.Errorf("retransmit votingSlot(%d) = %d, want %d", c.round, got, c.slot)
		}
	}
}

func TestPhaseString(t *testing.T) {
	for ph, want := range map[Phase]string{
		PhaseCommitment: "commitment", PhaseVoting: "voting",
		PhaseFindMin: "find-min", PhaseCoherence: "coherence",
		PhaseVerification: "verification", Phase(42): "phase(42)",
	} {
		if got := ph.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(ph), got, want)
		}
	}
}

func TestMessageSizesScalePolylog(t *testing.T) {
	// The certificate of an agent with Θ(log n) votes must be O(log² n) bits.
	for _, n := range []int{64, 1024, 16384} {
		p := MustParams(n, 2, 2)
		w := make([]WEntry, p.Q) // ~γ·log n votes
		cert := Certificate{P: p, W: w}
		logn := math.Log2(float64(n))
		if got := float64(cert.SizeBits()); got > 20*logn*logn {
			t.Errorf("n=%d: cert size %v bits exceeds 20·log²n = %v", n, got, 20*logn*logn)
		}
		in := Intentions{P: p, Votes: make([]Intent, p.Q)}
		if got := float64(in.SizeBits()); got > 20*logn*logn {
			t.Errorf("n=%d: intentions size %v bits exceeds 20·log²n", n, got)
		}
		v := Vote{P: p}
		if got := float64(v.SizeBits()); got > 10*logn {
			t.Errorf("n=%d: vote size %v bits exceeds 10·log n", n, got)
		}
	}
}

// TestVotingPassesMatchesVariant pins the schedule of every protocol variant
// to the variant-comparing rule votingPasses replaced: Passes repeats the
// Voting phase only under retransmit. PhaseOf agrees at every round up to
// past the end, and so does TotalRounds.
func TestVotingPassesMatchesVariant(t *testing.T) {
	base := MustParams(64, 2, 3)
	for _, proto := range []Protocol{
		{},
		{Variant: ProtocolLiveRetarget},
		{Variant: ProtocolRetransmit},
		{Variant: ProtocolRetransmit, Passes: MaxVotingPasses},
		{Variant: ProtocolRelaxed, MinVotes: 5},
	} {
		p, err := base.WithProtocol(proto)
		if err != nil {
			t.Fatal(err)
		}
		passes := 1
		if p.Proto.Variant == ProtocolRetransmit && p.Proto.Passes > 1 {
			passes = p.Proto.Passes
		}
		voting := passes * p.Q
		if got, want := p.TotalRounds(), (3+passes)*p.Q+1; got != want {
			t.Errorf("%+v: TotalRounds = %d, want %d", proto, got, want)
		}
		for round := 0; round <= p.TotalRounds()+p.Q; round++ {
			want := PhaseVerification
			switch {
			case round < p.Q:
				want = PhaseCommitment
			case round < p.Q+voting:
				want = PhaseVoting
			case round < 2*p.Q+voting:
				want = PhaseFindMin
			case round < 3*p.Q+voting:
				want = PhaseCoherence
			}
			if got := p.PhaseOf(round); got != want {
				t.Fatalf("%+v: PhaseOf(%d) = %v, want %v", proto, round, got, want)
			}
		}
	}
}
