package core

import (
	"fmt"

	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
)

// AsyncAgent is an exploratory adaptation of Protocol P to the sequential
// (asynchronous) GOSSIP model of the paper's second open problem (Section 4):
// at every tick a single uniformly random agent wakes and performs one
// push/pull.
//
// Without a common round counter the phases cannot be globally aligned, so
// each agent advances through them by its own activation count. Activation
// counts concentrate around t/n with O(√(t/n)) skew, so adjacent phases
// overlap across agents; the adaptation compensates structurally:
//
//   - a settle gap of 2q idle activations sits between Voting and Find-Min,
//     so every vote is pushed well before any receiver finalizes its
//     certificate (the gap dominates the O(√q) activation-count skew);
//   - Find-Min runs for 2q activations, so the eventual winner's certificate
//     exists for (almost) the entire spreading window of every agent;
//   - intention queries are answered at any time (the list is fixed up front),
//     certificate queries once the certificate exists;
//   - a certificate pushed at an agent still in Find-Min is treated as
//     information (adopt if smaller) rather than a coherence check.
//
// The local schedule is thus: Commitment [0,q), Voting [q,2q), settle gap
// [2q,4q), Find-Min [4q,6q), Coherence [6q,7q), Verification at 7q. Residual
// boundary losses remain possible and surface as protocol failures; their
// measured rate is what experiment E10 reports. No equilibrium claim is made
// for this variant.
//
// The phase constant matters more here than in the synchronous model: the
// maximum clock skew across n agents after c·q activations is
// Θ(√(q·log n)) = Θ(√(1/γ))·q, a constant fraction of the phase length that
// shrinks only as γ grows. γ = DefaultAsyncGamma (6) pushes the failure rate
// to ≈ 0 at simulation scales, where the synchronous protocol is happy with
// γ = 3.
type AsyncAgent struct {
	id    int
	p     Params
	color Color
	r     *rng.Source
	net   topo.Topology

	activations int
	intentions  []Intent
	log         *CommitmentLog
	w           []WEntry
	ownCert     *Certificate
	minCert     *Certificate

	// The sync agent's payload discipline (see Agent): one vote payload,
	// loaded with the activation's intention and pushed by pointer — the
	// async engine carries a push right after the Act that made it, so the
	// next activation may overwrite it — and the queries and the intention
	// answer are boxed once at construction, so an activation allocates
	// nothing.
	vote       Vote
	intentQ    gossip.Payload
	certQ      gossip.Payload
	intentsMsg gossip.Payload

	failed  bool
	decided bool
	out     Color
}

// NewAsyncAgent builds an honest sequential-model agent.
func NewAsyncAgent(id int, p Params, color Color, net topo.Topology, r *rng.Source) *AsyncAgent {
	if !color.Valid(p.NumColors) {
		panic("core: NewAsyncAgent with color outside Σ")
	}
	a := &AsyncAgent{id: id, p: p, color: color, r: r, net: net, log: NewCommitmentLog()}
	a.intentions = make([]Intent, p.Q)
	for i := range a.intentions {
		a.intentions[i] = Intent{H: r.Uint64n(p.M) + 1, Z: int32(net.SamplePeer(id, r))}
	}
	a.vote = Vote{P: p}
	a.w = make([]WEntry, 0, wCap(p.Q))
	a.intentQ = IntentQuery{P: p}
	a.certQ = CertQuery{P: p}
	a.intentsMsg = Intentions{P: p, Votes: a.intentions}
	a.log.reserve(p.Q)
	return a
}

// ID returns the agent's identity.
func (a *AsyncAgent) ID() int { return a.id }

// InitialColor returns the color supported at the onset.
func (a *AsyncAgent) InitialColor() Color { return a.color }

// asyncPhase adds the settle gap to the synchronous phase set.
type asyncPhase int

const (
	asyncCommitment asyncPhase = iota
	asyncVoting
	asyncSettle
	asyncFindMin
	asyncCoherence
	asyncVerification
)

// TotalActivations is the per-agent schedule length of the sequential
// adaptation: 7q scheduled activations plus the verification step.
func (p Params) TotalActivations() int { return 7*p.Q + 1 }

// localPhase maps the agent's own activation count to a phase of the
// gap-extended schedule.
func (a *AsyncAgent) localPhase() asyncPhase {
	q := a.p.Q
	switch {
	case a.activations < q:
		return asyncCommitment
	case a.activations < 2*q:
		return asyncVoting
	case a.activations < 4*q:
		return asyncSettle
	case a.activations < 6*q:
		return asyncFindMin
	case a.activations < 7*q:
		return asyncCoherence
	default:
		return asyncVerification
	}
}

// Act performs the agent's next scheduled operation; the tick argument is
// ignored (only the local activation count matters).
func (a *AsyncAgent) Act(tick int) gossip.Action {
	ph := a.localPhase()
	step := a.activations
	a.activations++
	switch ph {
	case asyncCommitment:
		return gossip.PullFrom(a.net.SamplePeer(a.id, a.r), a.intentQ)
	case asyncVoting:
		i := step - a.p.Q
		a.vote.Value = a.intentions[i].H
		return gossip.PushTo(int(a.intentions[i].Z), &a.vote)
	case asyncSettle:
		return gossip.NoAction() // let in-flight phases drain
	case asyncFindMin:
		a.ensureCert()
		return gossip.PullFrom(a.net.SamplePeer(a.id, a.r), a.certQ)
	case asyncCoherence:
		a.ensureCert()
		return gossip.PushTo(a.net.SamplePeer(a.id, a.r), a.minCert)
	default:
		if !a.decided {
			a.verify()
		}
		return gossip.NoAction()
	}
}

func (a *AsyncAgent) ensureCert() {
	if a.ownCert != nil {
		return
	}
	// a.w is frozen from here on (HandlePush drops votes once ownCert is
	// set), so the certificate aliases it instead of copying, sorted in place
	// into the (voter, value) order verifiers walk without a copy.
	sortWEntries(a.w)
	a.ownCert = &Certificate{
		P:     a.p,
		K:     SumVotesMod(a.w, a.p.M),
		W:     a.w,
		Color: a.color,
		Owner: int32(a.id),
	}
	a.minCert = a.ownCert
}

// HandlePush accepts votes until finalization and checks coherence after it.
func (a *AsyncAgent) HandlePush(tick, from int, p gossip.Payload) {
	switch m := p.(type) {
	case *Vote:
		if m != nil {
			a.handleVote(from, m.Value)
		}
	case Vote:
		a.handleVote(from, m.Value)
	case *Certificate:
		if a.activations < 6*a.p.Q {
			// The pusher is ahead of this agent (phases overlap under local
			// clocks); while still converging, a pushed certificate is
			// information, not a coherence check. Published certificates are
			// immutable, so adopting the pointer is safe.
			if a.ownCert != nil && m.Less(a.minCert) {
				a.minCert = m
			}
			return
		}
		if a.minCert != nil && !a.minCert.Equal(m) {
			a.failed = true
		}
	}
}

func (a *AsyncAgent) handleVote(from int, value uint64) {
	if a.ownCert != nil {
		return // too late; the boundary effect E10 measures
	}
	if value == 0 || value > a.p.M {
		return
	}
	if a.log.Faulty(int32(from)) {
		return
	}
	a.w = append(a.w, WEntry{Voter: int32(from), Value: value})
}

// HandlePull answers by query type (phases cannot be trusted to align).
func (a *AsyncAgent) HandlePull(tick, from int, query gossip.Payload) gossip.Payload {
	switch query.(type) {
	case IntentQuery:
		return a.intentsMsg
	case CertQuery:
		if a.minCert != nil {
			return a.minCert
		}
		return nil
	default:
		return nil
	}
}

// HandlePullReply consumes replies according to what was asked.
func (a *AsyncAgent) HandlePullReply(tick, from int, reply gossip.Payload) {
	switch a.localPhase() {
	case asyncCommitment, asyncVoting:
		// The last commitment pull's reply can arrive at the first voting
		// activation; classify by payload.
		if reply == nil {
			if a.localPhase() == asyncCommitment {
				a.log.MarkFaulty(int32(from))
			}
			return
		}
		if votes, ok := declaredVotes(reply); ok && validDeclarationFor(&a.p, votes) {
			a.log.Record(int32(from), votes)
		}
	case asyncFindMin, asyncCoherence:
		cert, ok := reply.(*Certificate)
		if !ok || cert == nil {
			return
		}
		if a.minCert == nil || cert.Less(a.minCert) {
			a.minCert = cert // immutable once published; adopt the pointer
		}
	}
}

func (a *AsyncAgent) verify() {
	a.decided = true
	if a.failed {
		a.out = ColorBot
		return
	}
	if err := verifyCertificate(&a.p, a.minCert, a.log); err != nil {
		a.failed = true
		a.out = ColorBot
		return
	}
	a.out = a.minCert.Color
}

// Decided implements gossip.Decider and Participant.
func (a *AsyncAgent) Decided() bool { return a.decided }

// Failed implements Participant.
func (a *AsyncAgent) Failed() bool { return a.failed }

// Output implements gossip.Decider.
func (a *AsyncAgent) Output() int { return int(a.FinalColor()) }

// FinalColor implements Participant.
func (a *AsyncAgent) FinalColor() Color {
	if !a.decided || a.failed {
		return ColorBot
	}
	return a.out
}

// AsyncRunConfig configures one sequential-model execution.
// MaxTicks of 0 defaults to 10·n·TotalActivations.
type AsyncRunConfig struct {
	Params Params
	Colors []Color
	Faulty []bool
	// Faults optionally adds a dynamic quiescence schedule on top of Faulty;
	// affected nodes still get agents (see RunConfig.Faults).
	Faults gossip.FaultSchedule
	// Unreliable marks the nodes affected by Faults; they are excluded from
	// the agreement requirement like faulty ones.
	Unreliable []bool
	Seed       uint64
	MaxTicks   int
	// Drop is the probabilistic message-loss rate; see RunConfig.Drop.
	Drop float64
	// Topology defaults to the complete graph on N nodes when nil.
	Topology topo.Topology
	// Trace optionally receives engine events.
	Trace trace.Sink
}

// AsyncRunResult is the observable result of one sequential-model execution.
type AsyncRunResult struct {
	Outcome Outcome
	Ticks   int
	Metrics metrics.Snapshot
}

// RunAsyncResult executes one sequential-GOSSIP run of the adapted protocol
// and returns the outcome, tick count, and communication accounting.
func RunAsyncResult(cfg AsyncRunConfig) (AsyncRunResult, error) {
	p := cfg.Params
	if len(cfg.Colors) != p.N {
		return AsyncRunResult{Outcome: Outcome{Failed: true}},
			fmt.Errorf("core: %d colors for n = %d", len(cfg.Colors), p.N)
	}
	net := cfg.Topology
	if net == nil {
		net = topo.NewComplete(p.N)
	}
	if net.N() != p.N {
		return AsyncRunResult{Outcome: Outcome{Failed: true}},
			fmt.Errorf("core: topology has %d nodes, params n = %d", net.N(), p.N)
	}
	if cfg.Unreliable != nil && len(cfg.Unreliable) != p.N {
		return AsyncRunResult{Outcome: Outcome{Failed: true}},
			fmt.Errorf("core: unreliable mask has %d entries for n = %d", len(cfg.Unreliable), p.N)
	}
	startDynamics(net, cfg.Seed)
	master := rng.New(cfg.Seed)
	agents := make([]gossip.Agent, p.N)
	parts := make([]Participant, p.N)
	for i := 0; i < p.N; i++ {
		if cfg.Faulty != nil && cfg.Faulty[i] {
			continue
		}
		if !cfg.Colors[i].Valid(p.NumColors) {
			return AsyncRunResult{Outcome: Outcome{Failed: true}},
				fmt.Errorf("core: node %d has color %d outside Σ", i, cfg.Colors[i])
		}
		a := NewAsyncAgent(i, p, cfg.Colors[i], net, master.Split(uint64(i)))
		agents[i] = a
		parts[i] = a
	}
	max := cfg.MaxTicks
	if max == 0 {
		max = 10 * p.N * p.TotalActivations()
	}
	if cfg.Drop < 0 || cfg.Drop >= 1 {
		return AsyncRunResult{Outcome: Outcome{Failed: true}},
			fmt.Errorf("core: drop probability %v outside [0, 1)", cfg.Drop)
	}
	var dropRand *rng.Source
	if cfg.Drop > 0 {
		dropRand = rng.New(rng.Mix64(cfg.Seed, dropStreamSalt))
	}
	var counters metrics.Counters
	eng := gossip.NewAsyncEngine(gossip.Config{
		Topology: net, Faulty: cfg.Faulty, Faults: cfg.Faults,
		Counters: &counters, Trace: cfg.Trace, Workers: 1,
		Drop: cfg.Drop, DropRand: dropRand,
	}, agents, master.Split(1<<61))
	ticks := eng.Run(max)
	excluded := cfg.Faulty
	if cfg.Unreliable != nil {
		excluded = make([]bool, p.N)
		for i := range excluded {
			excluded[i] = (cfg.Faulty != nil && cfg.Faulty[i]) || cfg.Unreliable[i]
		}
	}
	return AsyncRunResult{
		Outcome: CollectOutcome(parts, excluded),
		Ticks:   ticks,
		Metrics: counters.Snapshot(),
	}, nil
}

// RunAsync executes one sequential-GOSSIP run of the adapted protocol and
// returns the outcome and the number of ticks consumed.
func RunAsync(cfg AsyncRunConfig) (Outcome, int, error) {
	res, err := RunAsyncResult(cfg)
	return res.Outcome, res.Ticks, err
}
