// Package core implements Protocol P from "Rational Fair Consensus in the
// GOSSIP Model" (Clementi, Gualà, Proietti, Scornavacca, 2017), Algorithm 1.
//
// The protocol elects a uniformly random active agent and drives the network
// to consensus on that agent's color, in five communicating phases of
// q = ⌈γ·log₂ n⌉ rounds each plus a local verification step:
//
//	Voting-Intention (local): agent u draws q votes (hᵤ,ᵢ, zᵤ,ᵢ) with
//	    hᵤ,ᵢ u.a.r. in [1, m], m = n³, and zᵤ,ᵢ u.a.r. in [n].
//	Commitment: u pulls vote intentions Hᵥ from u.a.r. peers into Lᵤ;
//	    a peer that does not answer (or answers garbage) is marked faulty
//	    and all its votes count as 0.
//	Voting: at the i-th voting round u pushes hᵤ,ᵢ to zᵤ,ᵢ and collects
//	    received votes in Wᵤ; then kᵤ = Σ Wᵤ mod m.
//	Find-Min: pull-based broadcast of the certificate (kᵤ, Wᵤ, cᵤ, u)
//	    with the minimum k.
//	Coherence: u pushes its minimal certificate to u.a.r. peers and fails
//	    the protocol upon seeing a different one.
//	Verification (local): accept the winner color only if k_min equals
//	    Σ W_min mod m and W_min is consistent with the commitments in Lᵤ.
//
// The value kᵤ of every agent contains at least one vote from an honest
// agent unknown to any coalition (w.h.p.), so k is uniform in [m] and the
// minimum is a fair lottery; the commitment/verification pair makes lying
// about k or W detectable. This yields fair consensus (Theorem 4) and a
// whp t-strong equilibrium for t = o(n/log n) (Theorem 7).
package core

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// MaxN bounds the network size so m = n³ fits in uint64 with room for
// modular sums.
const MaxN = 1 << 20

// DefaultGamma is a phase-length constant that makes good executions
// overwhelmingly likely for moderate fault fractions at simulation scales.
const DefaultGamma = 3.0

// DefaultAsyncGamma is the phase-length constant for the sequential
// (asynchronous) adaptation, where local activation clocks drift apart by
// Θ(√(q·log n)) activations and phases must outgrow that skew (see
// AsyncAgent).
const DefaultAsyncGamma = 6.0

// ProtocolVariant selects how the Voting/Verification pair trades the
// paper's binding-declaration property for delivery robustness. The empty
// string and ProtocolBaseline both mean Algorithm 1 unchanged.
type ProtocolVariant string

// The protocol variants. Every variant keeps the five-phase schedule and the
// fair-lottery structure (k = Σ W mod m over the minimum certificate); they
// differ only in how votes travel and how strictly W is checked against Lᵤ.
const (
	// ProtocolBaseline is Algorithm 1 exactly as the paper states it.
	ProtocolBaseline ProtocolVariant = "baseline"
	// ProtocolLiveRetarget re-samples each vote's target from the *current*
	// neighbor set at send time instead of honoring the target declared up to
	// 2q rounds earlier. Declared values stay binding: verification checks
	// that a known voter's votes in W are a sub-multiset of its declared
	// values (any target), and drops the missing-vote direction — a vote may
	// legitimately have landed elsewhere. Trades the anti-vote-dropping
	// guarantee for tolerance of edge churn and mid-Voting crashes, at zero
	// message overhead.
	ProtocolLiveRetarget ProtocolVariant = "live-retarget"
	// ProtocolRetransmit keeps bindings strict but sends every vote Passes
	// times: the Voting phase becomes Passes sub-phases of q rounds, and pass
	// p re-pushes vote i (same value, same declared target) at round
	// q + p·q + i. The preallocated vote buffer is the bounded outbox and
	// Passes is the per-item TTL, after which the item silently expires —
	// the SNIPPETS median-counter shape. Receivers dedup redeliveries by
	// (voter, slot), so W and strict verification are unchanged in the
	// fault-free case. Costs ≈ Passes× the Voting pushes.
	ProtocolRetransmit ProtocolVariant = "retransmit"
	// ProtocolRelaxed keeps Algorithm 1's schedule and bindings but accepts a
	// certificate when at least MinVotes of the q per-voter checks pass:
	// verification counts inconsistent voters (altered, extra, or missing
	// votes — one violation per voter) and rejects only when they exceed
	// q − MinVotes. Trades detection slack (a cheating winner may drop up to
	// q − MinVotes voters' votes undetected) for loss tolerance, at zero
	// message overhead.
	ProtocolRelaxed ProtocolVariant = "relaxed"
)

// MaxVotingPasses bounds ProtocolRetransmit's TTL: the schedule grows by q
// rounds per pass, and past a handful of redeliveries the remaining failure
// modes (quiescent targets, spurious faulty marks) are ones retransmission
// cannot fix anyway.
const MaxVotingPasses = 8

// Protocol fixes the variant an instance runs. The zero value is the
// baseline. It is all-scalar so Params stays comparable. Params.WithProtocol
// keeps Passes 0 and MinVotes 0 outside the variant each belongs to, and the
// schedule relies on it: a nonzero Passes means retransmit.
type Protocol struct {
	Variant  ProtocolVariant
	Passes   int // ProtocolRetransmit: total sends per vote (the per-item TTL)
	MinVotes int // ProtocolRelaxed: per-voter checks that must pass, in [1, q]
}

// Params fixes one protocol instance. Build with NewParams.
//
// Params is a comparable value of 14 words (112 bytes on 64-bit). It travels
// by value at API boundaries (NewParams, RunConfig, NewAgent) and inside
// payloads, where a copy per run or per agent is free and value semantics
// keep published payloads immutable. Anything called per message reads it
// through a pointer instead — the agents' &a.p, the unexported
// pointer-receiver lookups below, validDeclarationFor, verifyCertificate —
// because at O(1) messages per node-round a by-value receiver or argument is
// a 112-byte copy per message, and the per-message work is little more than
// that.
type Params struct {
	N         int      // number of nodes (active + faulty)
	NumColors int      // |Σ|; colors are 0..NumColors-1
	Gamma     float64  // phase-length constant γ
	Q         int      // rounds per phase: ⌈γ·log₂ n⌉, at least 1
	M         uint64   // vote space size: n³
	Proto     Protocol // protocol variant; zero value = baseline

	// Precomputed wire widths.
	voteBits   int // bits to encode a value in [1, m]
	idBits     int // bits to encode a node ID
	colorBits  int // bits to encode a color
	indexBits  int // bits to encode a round index in [0, q)
	headerBits int // bits for a payload type tag
}

// NewParams validates and derives the protocol parameters.
func NewParams(n, numColors int, gamma float64) (Params, error) {
	if n < 2 || n > MaxN {
		return Params{}, fmt.Errorf("core: n = %d out of range [2, %d]", n, MaxN)
	}
	if numColors < 1 || numColors > n {
		return Params{}, fmt.Errorf("core: numColors = %d out of range [1, n]", numColors)
	}
	if gamma <= 0 {
		return Params{}, fmt.Errorf("core: gamma = %v must be positive", gamma)
	}
	q := int(math.Ceil(gamma * math.Log2(float64(n))))
	if q < 1 {
		q = 1
	}
	m := uint64(n) * uint64(n) * uint64(n)
	p := Params{
		N:         n,
		NumColors: numColors,
		Gamma:     gamma,
		Q:         q,
		M:         m,
	}
	p.voteBits = metrics.BitsForValues(m)
	p.idBits = metrics.BitsForValues(uint64(n))
	p.colorBits = metrics.BitsForValues(uint64(numColors))
	p.indexBits = metrics.BitsForValues(uint64(q))
	p.headerBits = 2
	return p, nil
}

// MustParams is NewParams that panics on error, for tests and examples.
func MustParams(n, numColors int, gamma float64) Params {
	p, err := NewParams(n, numColors, gamma)
	if err != nil {
		panic(err)
	}
	return p
}

// WithProtocol validates proto and returns a copy of p running that variant.
// The baseline (explicit or empty) normalizes to the zero Protocol, so two
// ways of spelling "no variant" yield equal Params. Retransmit's Passes
// defaults to 2 when unset; Relaxed's MinVotes must be explicit — a silent
// default would silently weaken verification.
func (p Params) WithProtocol(proto Protocol) (Params, error) {
	switch proto.Variant {
	case "", ProtocolBaseline:
		if proto.Passes != 0 || proto.MinVotes != 0 {
			return p, fmt.Errorf("core: protocol parameters (passes=%d, minVotes=%d) need a variant", proto.Passes, proto.MinVotes)
		}
		p.Proto = Protocol{}
	case ProtocolLiveRetarget:
		if proto.Passes != 0 || proto.MinVotes != 0 {
			return p, fmt.Errorf("core: live-retarget takes no parameters")
		}
		p.Proto = Protocol{Variant: ProtocolLiveRetarget}
	case ProtocolRetransmit:
		if proto.MinVotes != 0 {
			return p, fmt.Errorf("core: minVotes belongs to the relaxed variant, not retransmit")
		}
		if proto.Passes == 0 {
			proto.Passes = 2
		}
		if proto.Passes < 2 || proto.Passes > MaxVotingPasses {
			return p, fmt.Errorf("core: retransmit passes %d outside [2, %d]", proto.Passes, MaxVotingPasses)
		}
		p.Proto = Protocol{Variant: ProtocolRetransmit, Passes: proto.Passes}
	case ProtocolRelaxed:
		if proto.Passes != 0 {
			return p, fmt.Errorf("core: passes belongs to the retransmit variant, not relaxed")
		}
		if proto.MinVotes < 1 || proto.MinVotes > p.Q {
			return p, fmt.Errorf("core: relaxed minVotes %d outside [1, q] (q = %d)", proto.MinVotes, p.Q)
		}
		p.Proto = Protocol{Variant: ProtocolRelaxed, MinVotes: proto.MinVotes}
	default:
		return p, fmt.Errorf("core: unknown protocol variant %q", proto.Variant)
	}
	return p, nil
}

// votingPasses is how many times the Voting phase repeats its q-round
// push schedule: 1 everywhere except under ProtocolRetransmit. It reads
// Passes alone, which WithProtocol leaves 0 under every other variant, so the
// agents' per-message phase lookup compares no strings.
func (p *Params) votingPasses() int { return max(1, p.Proto.Passes) }

// TotalRounds is the protocol's running time: the Commitment, Find-Min and
// Coherence phases of Q rounds each, a Voting phase of votingPasses·Q rounds
// (Q except under retransmit), plus the local verification round.
func (p Params) TotalRounds() int { return (3+p.votingPasses())*p.Q + 1 }

// Phase identifies the protocol phase a given round belongs to.
type Phase int

// Protocol phases in schedule order.
const (
	PhaseCommitment Phase = iota
	PhaseVoting
	PhaseFindMin
	PhaseCoherence
	PhaseVerification
)

// String names the phase.
func (ph Phase) String() string {
	switch ph {
	case PhaseCommitment:
		return "commitment"
	case PhaseVoting:
		return "voting"
	case PhaseFindMin:
		return "find-min"
	case PhaseCoherence:
		return "coherence"
	case PhaseVerification:
		return "verification"
	default:
		return fmt.Sprintf("phase(%d)", int(ph))
	}
}

// PhaseOf maps a global round number to its phase. All agents know n, γ and
// the protocol variant, so the schedule is common knowledge and phases stay
// aligned — including the retransmit variant's longer Voting phase.
func (p Params) PhaseOf(round int) Phase { return p.phaseOf(round) }

// phaseOf is PhaseOf through a pointer: the form the agents call on every
// message (see Params for the passing convention).
func (p *Params) phaseOf(round int) Phase {
	voting := p.votingPasses() * p.Q
	switch {
	case round < p.Q:
		return PhaseCommitment
	case round < p.Q+voting:
		return PhaseVoting
	case round < 2*p.Q+voting:
		return PhaseFindMin
	case round < 3*p.Q+voting:
		return PhaseCoherence
	default:
		return PhaseVerification
	}
}

// votingSlot maps a Voting-phase round to the intention index pushed that
// round: pass p of the (possibly repeated) schedule pushes vote i at round
// q + p·q + i, so the slot is simply the position within the current pass.
func (p *Params) votingSlot(round int) int { return (round - p.Q) % p.Q }
