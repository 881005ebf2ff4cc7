package core

import (
	"testing"

	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/topo"
)

func newTestAgent(t *testing.T, id, n int) *Agent {
	t.Helper()
	p := MustParams(n, 2, 1)
	return NewAgent(id, p, Color(id%2), topo.NewComplete(n), rng.New(uint64(id)+1))
}

// declWith builds a well-formed q-length declaration whose first entry is
// the given intent; the rest are filler votes for the last node.
func declWith(p Params, first Intent) []Intent {
	votes := make([]Intent, p.Q)
	votes[0] = first
	for i := 1; i < p.Q; i++ {
		votes[i] = Intent{H: uint64(i), Z: int32(p.N - 1)}
	}
	return votes
}

func TestNewAgentIntentions(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	p := a.p
	if len(a.Intentions()) != p.Q {
		t.Fatalf("intentions count = %d, want q = %d", len(a.Intentions()), p.Q)
	}
	for i, in := range a.Intentions() {
		if in.H < 1 || in.H > p.M {
			t.Fatalf("intent %d value %d outside [1, m]", i, in.H)
		}
		if in.Z < 0 || int(in.Z) >= p.N {
			t.Fatalf("intent %d target %d outside [n]", i, in.Z)
		}
	}
}

func TestNewAgentRejectsInvalidColor(t *testing.T) {
	p := MustParams(8, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid color accepted")
		}
	}()
	NewAgent(0, p, Color(7), topo.NewComplete(8), rng.New(1))
}

func TestActSchedule(t *testing.T) {
	a := newTestAgent(t, 3, 16)
	q := a.p.Q

	for r := 0; r < q; r++ {
		act := a.Act(r)
		if act.Kind != gossip.ActPull {
			t.Fatalf("round %d (commitment): kind = %v, want pull", r, act.Kind)
		}
		if _, ok := act.Payload.(IntentQuery); !ok {
			t.Fatalf("round %d: query type %T", r, act.Payload)
		}
	}
	for r := q; r < 2*q; r++ {
		act := a.Act(r)
		if act.Kind != gossip.ActPush {
			t.Fatalf("round %d (voting): kind = %v, want push", r, act.Kind)
		}
		v, ok := act.Payload.(*Vote)
		if !ok {
			t.Fatalf("round %d: payload type %T", r, act.Payload)
		}
		in := a.Intentions()[r-q]
		if act.To != int(in.Z) || v.Value != in.H {
			t.Fatalf("round %d: pushed (%d,%d), declared (%d,%d)", r, act.To, v.Value, in.Z, in.H)
		}
	}
	for r := 2 * q; r < 3*q; r++ {
		act := a.Act(r)
		if act.Kind != gossip.ActPull {
			t.Fatalf("round %d (find-min): kind = %v, want pull", r, act.Kind)
		}
		if _, ok := act.Payload.(CertQuery); !ok {
			t.Fatalf("round %d: query type %T", r, act.Payload)
		}
	}
	for r := 3 * q; r < 4*q; r++ {
		act := a.Act(r)
		if act.Kind != gossip.ActPush {
			t.Fatalf("round %d (coherence): kind = %v, want push", r, act.Kind)
		}
		if _, ok := act.Payload.(*Certificate); !ok {
			t.Fatalf("round %d: payload type %T", r, act.Payload)
		}
	}
	act := a.Act(4 * q)
	if act.Kind != gossip.ActNone {
		t.Fatalf("verification round: kind = %v, want none", act.Kind)
	}
	if !a.Decided() {
		t.Fatal("agent not decided after verification round")
	}
}

// TestAgentVotePayload drives one agent through the Voting phase under the
// baseline, retransmit (every pass) and live-retarget schedules, re-initialized
// in place between them as a pool does. Every round pushes the agent's one
// vote buffer, loaded with that round's slot: (intentions[i].H, i) and the
// run's Params.
func TestAgentVotePayload(t *testing.T) {
	base := MustParams(32, 2, 2)
	net := topo.NewComplete(base.N)
	var a *Agent
	for k, p := range []Params{
		base,
		withVariant(t, base, Protocol{Variant: ProtocolRetransmit, Passes: 3}),
		withVariant(t, base, Protocol{Variant: ProtocolLiveRetarget}),
	} {
		if a == nil {
			a = NewAgent(1, p, 0, net, rng.New(7))
		} else {
			a.reset(1, &p, 0, net, uint64(7+k))
		}
		q, passes := p.Q, p.votingPasses()
		pushed := make([]int, q)
		for r := 0; r < (1+passes)*q; r++ {
			act := a.Act(r)
			if p.PhaseOf(r) != PhaseVoting {
				continue
			}
			i := (r - q) % q
			v, ok := act.Payload.(*Vote)
			if act.Kind != gossip.ActPush || !ok {
				t.Fatalf("%s round %d: %v of %T, want a *Vote push", p.Proto.Variant, r, act.Kind, act.Payload)
			}
			if v != &a.vote {
				t.Fatalf("%s round %d: pushed a payload other than the agent's vote buffer", p.Proto.Variant, r)
			}
			in := a.Intentions()[i]
			if want := (Vote{P: p, Value: in.H, Index: int32(i)}); *v != want {
				t.Fatalf("%s round %d: pushed %+v, want %+v", p.Proto.Variant, r, *v, want)
			}
			if p.Proto.Variant != ProtocolLiveRetarget && act.To != int(in.Z) {
				t.Fatalf("%s round %d: pushed to %d, declared %d", p.Proto.Variant, r, act.To, in.Z)
			}
			pushed[i]++
		}
		for i, n := range pushed {
			if n != passes {
				t.Fatalf("%s: slot %d pushed %d times, want %d", p.Proto.Variant, i, n, passes)
			}
		}
	}
}

func TestHandlePushCollectsVotes(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	q := a.p.Q
	a.HandlePush(q, 5, Vote{P: a.p, Value: 100})
	a.HandlePush(q+1, 6, Vote{P: a.p, Value: 200})
	w := a.VotesReceived()
	if len(w) != 2 || w[0] != (WEntry{5, 100}) || w[1] != (WEntry{6, 200}) {
		t.Fatalf("W = %v", w)
	}
	if a.K() != 300%a.p.M {
		t.Fatalf("K = %d", a.K())
	}
}

func TestHandlePushDropsMalformedVotes(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	q := a.p.Q
	a.HandlePush(q, 5, Vote{P: a.p, Value: 0})         // reserved zero
	a.HandlePush(q, 5, Vote{P: a.p, Value: a.p.M + 1}) // overflow
	a.HandlePush(q, 5, IntentQuery{P: a.p})            // wrong type
	if len(a.VotesReceived()) != 0 {
		t.Fatalf("malformed votes accepted: %v", a.VotesReceived())
	}
}

func TestHandlePushIgnoresVotesOutsideVotingPhase(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	a.HandlePush(0, 5, Vote{P: a.p, Value: 10})       // commitment phase
	a.HandlePush(2*a.p.Q, 5, Vote{P: a.p, Value: 10}) // find-min phase
	if len(a.VotesReceived()) != 0 {
		t.Fatal("vote accepted outside voting phase")
	}
}

func TestHandlePushDropsVotesFromFaultyMarked(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	a.HandlePullReply(0, 5, nil) // mark 5 faulty during commitment
	a.HandlePush(a.p.Q, 5, Vote{P: a.p, Value: 10})
	if len(a.VotesReceived()) != 0 {
		t.Fatal("vote from faulty-marked peer accepted")
	}
}

func TestHandlePullPerPhase(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	q := a.p.Q

	if in, ok := a.HandlePull(0, 1, IntentQuery{P: a.p}).(Intentions); !ok || len(in.Votes) != q {
		t.Fatal("commitment pull did not return intentions")
	}
	if a.HandlePull(q, 1, CertQuery{P: a.p}) != nil {
		t.Fatal("voting-phase pull answered")
	}
	// Prime the certificate by entering find-min.
	a.Act(2 * q)
	reply := a.HandlePull(2*q, 1, CertQuery{P: a.p})
	cert, ok := reply.(*Certificate)
	if !ok || cert.Owner != 0 {
		t.Fatalf("find-min pull returned %T %v", reply, reply)
	}
	if a.HandlePull(4*q, 1, CertQuery{P: a.p}) != nil {
		t.Fatal("verification-phase pull answered")
	}
}

func TestHandlePullReplyCommitment(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	a.HandlePullReply(0, 3, Intentions{P: a.p, Votes: declWith(a.p, Intent{H: 7, Z: 0})})
	got, ok := a.Log().Declared(3)
	if !ok || got[0].H != 7 {
		t.Fatal("declaration not recorded")
	}
	// Garbage reply marks faulty.
	a.HandlePullReply(0, 4, Vote{P: a.p, Value: 1})
	if !a.Log().Faulty(4) {
		t.Fatal("garbage reply did not mark faulty")
	}
	// First declaration is binding.
	a.HandlePullReply(1, 3, Intentions{P: a.p, Votes: declWith(a.p, Intent{H: 99, Z: 0})})
	got, _ = a.Log().Declared(3)
	if got[0].H != 7 {
		t.Fatal("second declaration overwrote the first")
	}
}

func TestHandlePullReplyRejectsMalformedDeclarations(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	p := a.p
	cases := map[string][]Intent{
		"too short":             {{H: 1, Z: 0}},
		"too long":              append(declWith(p, Intent{H: 1, Z: 0}), Intent{H: 1, Z: 0}),
		"zero vote":             declWith(p, Intent{H: 0, Z: 0}),
		"huge vote":             declWith(p, Intent{H: p.M + 1, Z: 0}),
		"bad target (negative)": declWith(p, Intent{H: 1, Z: -1}),
		"bad target (too big)":  declWith(p, Intent{H: 1, Z: int32(p.N)}),
	}
	voter := int32(3)
	for name, votes := range cases {
		a2 := newTestAgent(t, 0, 16)
		a2.HandlePullReply(0, int(voter), Intentions{P: p, Votes: votes})
		if !a2.Log().Faulty(voter) {
			t.Errorf("%s: malformed declaration accepted", name)
		}
		_ = name
	}
}

func TestHandlePullReplyFindMinAdoptsSmaller(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	q := a.p.Q
	a.HandlePush(q, 5, Vote{P: a.p, Value: 50}) // gives a.K() = 50
	a.Act(2 * q)                                // finalize own cert
	own := a.MinCertificate()
	if own.K != 50 {
		t.Fatalf("own cert K = %d", own.K)
	}
	smaller := &Certificate{P: a.p, K: 10, Color: 1, Owner: 7, W: []WEntry{{1, 10}}}
	a.HandlePullReply(2*q, 7, smaller)
	if a.MinCertificate().K != 10 {
		t.Fatal("smaller certificate not adopted")
	}
	bigger := &Certificate{P: a.p, K: 40, Color: 0, Owner: 9}
	a.HandlePullReply(2*q, 9, bigger)
	if a.MinCertificate().K != 10 {
		t.Fatal("bigger certificate adopted")
	}
	// Nil and garbage replies are ignored.
	a.HandlePullReply(2*q, 3, nil)
	a.HandlePullReply(2*q, 3, Vote{P: a.p, Value: 1})
	if a.MinCertificate().K != 10 {
		t.Fatal("garbage reply changed certificate")
	}
}

func TestFindMinReplyIsStartOfRoundSnapshot(t *testing.T) {
	// An agent that adopts a smaller certificate mid-round must keep
	// answering with the snapshot taken at Act time (one-hop-per-round
	// propagation).
	a := newTestAgent(t, 0, 16)
	q := a.p.Q
	a.HandlePush(q, 5, Vote{P: a.p, Value: 50}) // own k = 50, adoptable from below
	a.Act(2 * q)                                // snapshot own cert
	ownK := a.MinCertificate().K
	smaller := &Certificate{P: a.p, K: 1, Color: 1, Owner: 7, W: []WEntry{{1, 1}}}
	a.HandlePullReply(2*q, 7, smaller)
	reply := a.HandlePull(2*q, 3, CertQuery{P: a.p}).(*Certificate)
	if reply.K != ownK {
		t.Fatalf("reply K = %d, want start-of-round snapshot %d", reply.K, ownK)
	}
	// Next round's Act refreshes the snapshot.
	a.Act(2*q + 1)
	reply = a.HandlePull(2*q+1, 3, CertQuery{P: a.p}).(*Certificate)
	if reply.K != 1 {
		t.Fatalf("next-round reply K = %d, want 1", reply.K)
	}
}

func TestCoherenceMismatchFails(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	q := a.p.Q
	a.Act(3 * q) // enters coherence with own cert
	mine := a.MinCertificate()
	a.HandlePush(3*q, 2, mine.Clone())
	if a.Failed() {
		t.Fatal("identical certificate caused failure")
	}
	other := mine.Clone()
	other.K++
	a.HandlePush(3*q, 2, other)
	if !a.Failed() {
		t.Fatal("mismatching certificate not detected")
	}
}

func TestVerifyAcceptsOwnHonestRun(t *testing.T) {
	// A lone agent that voted only for itself verifies successfully: its W
	// matches its own declared intents for itself.
	p := MustParams(2, 2, 1)
	a := NewAgent(0, p, 0, topo.NewComplete(2), rng.New(3))
	// Simulate the voting phase: agent receives its own declared self-votes.
	for _, in := range a.Intentions() {
		if in.Z == 0 {
			a.HandlePush(p.Q, 0, Vote{P: p, Value: in.H})
		}
	}
	a.Act(2 * p.Q)
	a.Act(4 * p.Q)
	if a.Failed() {
		t.Fatal("honest self-contained run failed verification")
	}
	if a.FinalColor() != 0 {
		t.Fatalf("FinalColor = %d", a.FinalColor())
	}
}

func TestVerifyFailsOnForgedMinCert(t *testing.T) {
	a := newTestAgent(t, 0, 16)
	q := a.p.Q
	// Record a commitment from voter 3 that includes a vote for agent 9.
	a.HandlePullReply(0, 3, Intentions{P: a.p, Votes: declWith(a.p, Intent{H: 42, Z: 9})})
	// Give the agent a vote so its own certificate has k = 50 > forged k.
	a.HandlePush(q, 5, Vote{P: a.p, Value: 50})
	a.Act(2 * q)
	// Adversary presents a forged winning certificate for owner 9 without
	// voter 3's committed vote.
	forged := &Certificate{P: a.p, K: 5, W: []WEntry{{Voter: 8, Value: 5}}, Color: 1, Owner: 9}
	a.HandlePullReply(2*q, 5, forged)
	a.Act(4 * q)
	if !a.Failed() || a.FinalColor() != ColorBot {
		t.Fatal("forged certificate passed verification")
	}
}

func TestAgentAccessors(t *testing.T) {
	a := newTestAgent(t, 4, 16)
	if a.ID() != 4 || a.InitialColor() != 0 {
		t.Fatalf("accessors: id=%d color=%d", a.ID(), a.InitialColor())
	}
	if a.Decided() {
		t.Fatal("decided before verification")
	}
	if a.FinalColor() != ColorBot {
		t.Fatal("FinalColor before decision should be ⊥")
	}
	if a.Output() != int(ColorBot) {
		t.Fatal("Output mismatch")
	}
}
