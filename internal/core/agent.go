package core

import (
	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/topo"
)

// Agent is an honest (protocol-following) participant of Protocol P. It
// implements gossip.Agent plus the Participant interface used for outcome
// collection.
//
// The zero value is not usable; construct with NewAgent. An Agent is owned by
// a single engine and is not safe for concurrent use except as the engine
// prescribes (Act in parallel with other agents' Act only).
//
// Agents are pool-friendly: RunPool resets them in place between trials, so
// everything an agent hands out (Intentions, VotesReceived, certificates) is
// owned by the agent and valid only until the agent is reset for another run.
type Agent struct {
	id    int
	p     Params
	color Color
	r     *rng.Source
	net   topo.Topology

	// Voting-Intention output, fixed at construction (round-0 local step).
	intentions []Intent
	// voteMsgs[i] is the preallocated Voting-phase payload for intentions[i];
	// pushing &voteMsgs[i] boxes a pointer, which allocates nothing.
	voteMsgs []Vote

	// Boxed reusable payloads: queries depend only on Params and the
	// intention answer's slice header never moves, so steady-state rounds
	// re-send the same interface values instead of re-boxing per round, and
	// a pooled agent re-run under the same Params keeps all three.
	intentQ    gossip.Payload
	certQ      gossip.Payload
	intentsMsg gossip.Payload

	// Commitment state.
	log *CommitmentLog

	// Voting state. seenVotes dedups retransmit redeliveries by packed
	// (voter, slot) key — the bounded receive-side complement of the TTL
	// outbox; nil/unused outside ProtocolRetransmit.
	w         []WEntry
	seenVotes []uint64

	// Find-Min / Coherence state. ownCertBuf is the backing storage for the
	// agent's own certificate, reused across pooled runs; published
	// certificates are immutable, so minCert may alias a peer's memory.
	ownCert    *Certificate
	ownCertBuf Certificate
	minCert    *Certificate
	replyCert  *Certificate // snapshot answered to same-round pulls

	// vscratch backs the Verification phase's sort/compare buffers, reused
	// across pooled runs.
	vscratch verifyScratch

	failed  bool
	decided bool
	out     Color
}

// NewAgent builds an honest agent with identity id supporting color,
// drawing all randomness from r (which the agent takes ownership of).
func NewAgent(id int, p Params, color Color, net topo.Topology, r *rng.Source) *Agent {
	a := &Agent{r: r, log: NewCommitmentLog()}
	a.init(id, &p, color, net)
	return a
}

// reset reinitializes the agent in place for a new run, reusing every buffer
// it already owns. Reseeding with seed yields exactly the stream NewAgent
// would draw from rng.New(seed), so pooled and fresh runs are byte-identical.
func (a *Agent) reset(id int, p *Params, color Color, net topo.Topology, seed uint64) {
	if a.r == nil {
		a.r = &rng.Source{}
	}
	a.r.Reseed(seed)
	if a.log == nil {
		a.log = NewCommitmentLog()
	} else {
		a.log.Reset()
	}
	a.w = a.w[:0]
	a.seenVotes = a.seenVotes[:0]
	a.ownCert, a.minCert, a.replyCert = nil, nil, nil
	a.failed, a.decided = false, false
	a.out = 0
	a.init(id, p, color, net)
}

// init runs the round-0 local step shared by NewAgent and reset: it fixes the
// identity fields and draws the Voting-Intention list from a.r. Everything
// derived from Params alone — the buffers' length, each vote payload's P and
// Index, the three boxed payloads — is rebuilt only when Params differ from
// the agent's previous run (always, for a new agent: valid Params are never
// zero), so a pooled trial under unchanged Params copies no Params and boxes
// nothing.
func (a *Agent) init(id int, p *Params, color Color, net topo.Topology) {
	if !color.Valid(p.NumColors) {
		panic("core: NewAgent with color outside Σ")
	}
	a.id = id
	a.color = color
	a.net = net

	if a.p != *p {
		a.p = *p
		if cap(a.intentions) < p.Q {
			a.intentions = make([]Intent, p.Q)
		}
		if cap(a.voteMsgs) < p.Q {
			a.voteMsgs = make([]Vote, p.Q)
		}
		a.intentions = a.intentions[:p.Q]
		a.voteMsgs = a.voteMsgs[:p.Q]
		for i := range a.voteMsgs {
			a.voteMsgs[i] = Vote{P: *p, Index: int32(i)}
		}
		a.intentQ = IntentQuery{P: *p}
		a.certQ = CertQuery{P: *p}
		a.intentsMsg = Intentions{P: *p, Votes: a.intentions}
		a.log.reserve(p.Q)
	}

	// Voting-Intention phase: q votes, values u.a.r. in [1, m], targets
	// u.a.r. over the topology's sample space (all of [n] on the complete
	// graph, exactly the paper's "u.a.r. in [n]"; the neighbor set on
	// restricted graphs, where non-neighbors are unreachable).
	for i := range a.intentions {
		a.intentions[i] = Intent{
			H: a.r.Uint64n(p.M) + 1,
			Z: int32(net.SamplePeer(id, a.r)),
		}
		a.voteMsgs[i].Value = a.intentions[i].H
	}
}

// ID returns the agent's node identity.
func (a *Agent) ID() int { return a.id }

// Params returns the protocol parameters the agent runs with.
func (a *Agent) Params() Params { return a.p }

// Topology returns the communication topology the agent samples peers from.
func (a *Agent) Topology() topo.Topology { return a.net }

// Rand returns the agent's private randomness source. Deviation wrappers
// (which are logically the same agent) use it for their own peer sampling.
func (a *Agent) Rand() *rng.Source { return a.r }

// EnsureCertificate finalizes and returns the agent's own certificate; it is
// idempotent. Deviation wrappers that replace the Find-Min behaviour use it
// to obtain the honest certificate the wrapped agent would have built.
func (a *Agent) EnsureCertificate() *Certificate {
	if a.ownCert == nil {
		a.finalizeOwnCertificate()
	}
	return a.ownCert
}

// InitialColor returns the color the agent supports at the onset.
func (a *Agent) InitialColor() Color { return a.color }

// Intentions exposes the declared vote list (test and analysis hook). The
// slice is agent-owned; it is valid until the agent is reset by a pool.
func (a *Agent) Intentions() []Intent { return a.intentions }

// VotesReceived exposes Wᵤ (test and analysis hook). The slice is
// agent-owned; it is valid until the agent is reset by a pool.
func (a *Agent) VotesReceived() []WEntry { return a.w }

// K returns the agent's vote sum kᵤ; valid once the Voting phase ended.
func (a *Agent) K() uint64 { return SumVotesMod(a.w, a.p.M) }

// MinCertificate returns the minimal certificate currently held.
func (a *Agent) MinCertificate() *Certificate { return a.minCert }

// Log exposes the commitment log (test and analysis hook).
func (a *Agent) Log() *CommitmentLog { return a.log }

// Act implements the per-round schedule of Algorithm 1.
func (a *Agent) Act(round int) gossip.Action {
	switch a.p.phaseOf(round) {
	case PhaseCommitment:
		return gossip.PullFrom(a.net.SamplePeer(a.id, a.r), a.intentQ)

	case PhaseVoting:
		i := a.p.votingSlot(round)
		if i < 0 || i >= len(a.intentions) {
			return gossip.NoAction()
		}
		if a.p.Proto.Variant == ProtocolLiveRetarget {
			// Targets are advisory under live-retarget: re-sample from the
			// current neighbor set at send time so the vote reaches somebody
			// even when the declared edge has since churned away. The declared
			// values stay binding (see verifyCertificate).
			return gossip.PushTo(a.net.SamplePeer(a.id, a.r), &a.voteMsgs[i])
		}
		// Under retransmit, later passes re-push the same preallocated
		// payload to the same declared target — the vote buffer is the
		// bounded outbox, and items expire when the passes run out.
		return gossip.PushTo(int(a.intentions[i].Z), &a.voteMsgs[i])

	case PhaseFindMin:
		if a.ownCert == nil {
			a.finalizeOwnCertificate()
		}
		// Snapshot the certificate answered to pulls arriving this round, so
		// information propagates one hop per round (synchronous semantics).
		a.replyCert = a.minCert
		return gossip.PullFrom(a.net.SamplePeer(a.id, a.r), a.certQ)

	case PhaseCoherence:
		if a.ownCert == nil { // defensive: q rounds always precede, but keep safe
			a.finalizeOwnCertificate()
		}
		a.replyCert = a.minCert
		return gossip.PushTo(a.net.SamplePeer(a.id, a.r), a.minCert)

	default: // PhaseVerification
		if !a.decided {
			a.verify()
		}
		return gossip.NoAction()
	}
}

// finalizeOwnCertificate computes kᵤ and CEᵤ from the collected votes; it
// runs once, at the first Find-Min round. The certificate aliases a.w, which
// is append-only during Voting and frozen afterwards, so no copy is needed.
func (a *Agent) finalizeOwnCertificate() {
	a.ownCertBuf = Certificate{
		P:     a.p,
		K:     SumVotesMod(a.w, a.p.M),
		W:     a.w,
		Color: a.color,
		Owner: int32(a.id),
	}
	a.ownCert = &a.ownCertBuf
	a.minCert = a.ownCert
}

// HandlePush processes pushed payloads according to the agent's own phase;
// anything outside the expected phase/type is ignored (a deviator cannot make
// an honest agent act out of protocol).
func (a *Agent) HandlePush(round, from int, p gossip.Payload) {
	switch a.p.phaseOf(round) {
	case PhaseVoting:
		// Honest votes arrive as *Vote and are read in place: only Value and
		// Index matter here, and copying the payload would copy its Params.
		var v *Vote
		switch m := p.(type) {
		case *Vote:
			if m == nil {
				return
			}
			v = m
		case Vote:
			v = &m
		default:
			return
		}
		// Malformed values are discarded at receipt so an honest agent's W
		// never contains junk a verifier would (rightly) reject.
		if v.Value == 0 || v.Value > a.p.M {
			return
		}
		// Votes from peers this agent marked faulty count as 0 (footnote 4).
		if a.log.Faulty(int32(from)) {
			return
		}
		if a.p.Proto.Variant == ProtocolRetransmit {
			// Redelivered votes carry their declared slot; keep the first copy
			// of each (voter, slot) so W matches the single-delivery multiset.
			// An out-of-range slot is malformed (and would let a deviator grow
			// the dedup set without bound), so it is discarded like a bad value.
			if v.Index < 0 || int(v.Index) >= a.p.Q {
				return
			}
			key := uint64(uint32(from))<<32 | uint64(uint32(v.Index))
			for _, k := range a.seenVotes {
				if k == key {
					return
				}
			}
			a.seenVotes = append(a.seenVotes, key)
		}
		a.w = append(a.w, WEntry{Voter: int32(from), Value: v.Value})

	case PhaseCoherence:
		cert, ok := p.(*Certificate)
		if !ok {
			return
		}
		if a.minCert != nil && !a.minCert.Equal(cert) {
			a.failNow()
		}
	}
}

// HandlePull answers a pull according to the agent's own phase: the
// intention list during Commitment, the (start-of-round) minimal certificate
// during Find-Min and Coherence, silence otherwise.
func (a *Agent) HandlePull(round, from int, query gossip.Payload) gossip.Payload {
	switch a.p.phaseOf(round) {
	case PhaseCommitment:
		return a.intentsMsg
	case PhaseFindMin, PhaseCoherence:
		if a.replyCert != nil {
			return a.replyCert
		}
		if a.minCert != nil {
			return a.minCert
		}
		return nil
	default:
		return nil
	}
}

// HandlePullReply consumes the answer to this agent's own pull.
func (a *Agent) HandlePullReply(round, from int, reply gossip.Payload) {
	switch a.p.phaseOf(round) {
	case PhaseCommitment:
		if reply == nil {
			a.log.MarkFaulty(int32(from))
			return
		}
		votes, ok := declaredVotes(reply)
		if !ok || !validDeclarationFor(&a.p, votes) {
			// "Replies in an unexpected way" — marked faulty (footnote 4).
			// A declaration is well-formed only if it has exactly q votes
			// with values in [1, m] and in-range targets: Hᵤ has exactly
			// that shape by construction, so anything else is a deviation
			// (and accepting unbounded lists would be a memory/bandwidth
			// attack on the verifiers).
			a.log.MarkFaulty(int32(from))
			return
		}
		a.log.Record(int32(from), votes)

	case PhaseFindMin:
		cert, ok := reply.(*Certificate)
		if !ok || cert == nil {
			return // silent or garbage peer: the pull simply fails
		}
		// Published certificates are immutable: adopt the pointer. This is
		// the steady-state Find-Min path and it allocates nothing.
		if a.minCert == nil || cert.Less(a.minCert) {
			a.minCert = cert
		}
	}
}

// declaredVotes returns the intention list a Commitment-phase reply carries,
// and whether the reply was an Intentions payload at all. Intentions travels
// as a value, so reading it out of the interface copies it; the switch form
// copies once where a comma-ok assertion copies twice.
func declaredVotes(reply gossip.Payload) ([]Intent, bool) {
	switch m := reply.(type) {
	case Intentions:
		return m.Votes, true
	}
	return nil, false
}

// validDeclarationFor reports whether a pulled intention list has the exact
// shape the protocol prescribes (q votes, values in [1, m], targets in [n]).
func validDeclarationFor(p *Params, votes []Intent) bool {
	if len(votes) != p.Q {
		return false
	}
	for _, in := range votes {
		if in.H == 0 || in.H > p.M {
			return false
		}
		if in.Z < 0 || int(in.Z) >= p.N {
			return false
		}
	}
	return true
}

// verify runs the Verification phase and fixes the agent's output.
func (a *Agent) verify() {
	a.decided = true
	if a.failed {
		a.out = ColorBot
		return
	}
	if err := verifyCertificate(&a.p, a.minCert, a.log, &a.vscratch); err != nil {
		a.failNow()
		a.out = ColorBot
		return
	}
	a.out = a.minCert.Color
}

func (a *Agent) failNow() {
	a.failed = true
}

// Failed reports whether the agent declared protocol failure.
func (a *Agent) Failed() bool { return a.failed }

// Decided reports whether the agent reached a final state.
func (a *Agent) Decided() bool { return a.decided }

// Output returns the agent's final color as an int for gossip.Decider;
// ColorBot (−1) encodes failure.
func (a *Agent) Output() int { return int(a.FinalColor()) }

// FinalColor returns the agent's final color, or ColorBot on failure or
// before deciding.
func (a *Agent) FinalColor() Color {
	if !a.decided || a.failed {
		return ColorBot
	}
	return a.out
}
