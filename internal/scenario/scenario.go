// Package scenario is the declarative experiment layer of the repository:
// one Scenario value names everything that defines a protocol execution —
// network size, initial-opinion distribution, phase-length constant,
// topology, fault model, scheduler (synchronous rounds or sequential ticks),
// and an optional rational coalition — and one Runner executes it, for a
// single seed or as a seed-batched Monte-Carlo experiment, through a single
// code path shared by every CLI, example, and experiment table.
//
// The point of the indirection is that new experiment axes become one-field
// additions instead of new wiring: crash-at-round-r faults, periodic churn,
// and Zipf-skewed initial opinions are all expressed here and flow through
// the same unified gossip executor as the paper's original grid.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/topo"
)

// SchedulerKind selects the execution model.
type SchedulerKind string

// The two schedulers of the paper: synchronous rounds (Section 2) and the
// sequential one-agent-per-tick model (Section 4, open problem 2).
const (
	SchedulerSync  SchedulerKind = "sync"
	SchedulerAsync SchedulerKind = "async"
)

// ColorInit names the initial-opinion distribution.
type ColorInit string

// Supported initial color distributions.
const (
	// ColorsUniform assigns colors round-robin (core.UniformColors).
	ColorsUniform ColorInit = "uniform"
	// ColorsSplit gives the first ⌊SplitFraction·n⌋ nodes color 0, the rest
	// color 1 (core.SplitColors).
	ColorsSplit ColorInit = "split"
	// ColorsZipf draws each node's color from a Zipf law with exponent ZipfS
	// (core.ZipfColors) — the skewed-opinion workload.
	ColorsZipf ColorInit = "zipf"
	// ColorsLeader gives every node its own color, turning fair consensus
	// into fair leader election (core.LeaderElectionColors).
	ColorsLeader ColorInit = "leader"
)

// FaultKind names the fault model.
type FaultKind string

// Supported fault models.
const (
	FaultNone FaultKind = "none"
	// FaultPermanent is the paper's model: the first ⌊α·n⌋ nodes are
	// quiescent from round 0 and never get agents.
	FaultPermanent FaultKind = "permanent"
	// FaultCrash runs the first ⌊α·n⌋ nodes honestly until round Round, then
	// silences them permanently. The protocol's binding declarations make the
	// onset round decisive: a crash before the Voting phase behaves like a
	// permanent fault and is tolerated, a crash after Voting is harmless, but
	// a crash *during* Voting leaves declared votes unfulfilled and every
	// verifier holding the crashed node's declaration rejects the winning
	// certificate (VerifyCertificate's missing-vote direction) — success
	// collapses. That brittleness window is the measurement this axis exists
	// for.
	FaultCrash FaultKind = "crash"
	// FaultChurn alternates the first ⌊α·n⌋ nodes between Period rounds up
	// and Period rounds down, staggered by node ID. Nodes down during their
	// own Voting rounds leave declared votes unfulfilled, so churn spanning
	// the Voting phase drives the failure rate toward 1 (see FaultCrash) —
	// the honest-but-intermittent adversary is this protocol's worst case.
	FaultChurn FaultKind = "churn"
)

// DynamicsKind names the graph process that evolves the topology per round.
type DynamicsKind string

// Supported dynamic-topology processes.
const (
	// DynamicsNone leaves the scenario's static topology in place.
	DynamicsNone DynamicsKind = "none"
	// DynamicsEdgeMarkovian evolves every potential edge as its own two-state
	// Markov chain: absent edges appear with probability Birth and present
	// edges disappear with probability Death at each round boundary
	// (topo.EdgeMarkovian). Round 0 is drawn from the stationary law, so the
	// expected degree stays ≈ (n−1)·Birth/(Birth+Death) throughout.
	DynamicsEdgeMarkovian DynamicsKind = "edge-markovian"
	// DynamicsRewireRing keeps the n-cycle as substrate and, each round,
	// independently replaces every node's clockwise edge by a uniformly
	// random chord with probability Beta (topo.RewireRing) — Watts–Strogatz
	// rewiring resampled per round instead of frozen at construction.
	DynamicsRewireRing DynamicsKind = "rewire-ring"
	// DynamicsDRegular re-matches a random (approximately) Degree-regular
	// graph from scratch every round via configuration-model stub pairing
	// (topo.DRegular): consecutive rounds are independent, so nearly the
	// whole edge set turns over each round — the maximal-churn extreme at
	// fixed degree. The generator is implicit (O(n·Degree) state, no pair
	// population), so it scales to the full n range.
	DynamicsDRegular DynamicsKind = "d-regular"
	// DynamicsGeometric scatters n points on the unit torus, connects pairs
	// within radius √(Degree/(π·n)) (expected degree ≈ Degree), and moves
	// every point by a uniform per-axis offset in [−Jitter, Jitter] each
	// round (topo.Geometric). Jitter dials churn continuously from a frozen
	// geometric graph to full spatial re-mixing, while the graph keeps
	// spatial locality — the clique-free setting of the paper's open
	// problem. Implicit like d-regular: O(n + edges) state.
	DynamicsGeometric DynamicsKind = "geometric"
)

// Dynamics describes a per-round evolving topology — the graph-process
// analogue of churn: every node stays up, but who can talk to whom is
// redrawn at each round boundary. The zero value means a static topology.
// When active, the process replaces the scenario's Topology (which must be
// left at its default), and every run derives the evolution from its own
// seed, so dynamic runs are exactly as reproducible as static ones.
// Admission is keyed on memory that actually exists: every process is
// O(present edges), so scenarios are admitted up to n = topo.MaxDynamicN
// (= core.MaxN) with expected edge count at most topo.MaxDynamicEdges —
// million-node networks are fine as long as they are sparse.
type Dynamics struct {
	Kind DynamicsKind
	// Birth is the per-round appearance probability of an absent edge
	// (DynamicsEdgeMarkovian only), in [0, 1].
	Birth float64
	// Death is the per-round disappearance probability of a present edge
	// (DynamicsEdgeMarkovian only), in [0, 1]. Birth+Death must be positive.
	Death float64
	// Beta is the per-round rewiring probability of each ring edge
	// (DynamicsRewireRing only), in [0, 1].
	Beta float64
	// Degree is the per-node degree target: the exact stub count of
	// DynamicsDRegular (2 ≤ Degree < n, n·Degree even) or the expected
	// degree of DynamicsGeometric (≥ 1). Those two kinds only.
	Degree int
	// Jitter is the per-round, per-axis uniform displacement bound of
	// DynamicsGeometric points, in [0, 1]. 0 freezes the point set (a
	// static geometric graph). DynamicsGeometric only.
	Jitter float64
}

// Active reports whether d names a real graph process (anything but the zero
// value and the explicit "none").
func (d Dynamics) Active() bool { return d.Kind != "" && d.Kind != DynamicsNone }

// ProtocolVariant names a protocol variant (see core.ProtocolVariant).
type ProtocolVariant string

// Supported protocol variants. The baseline is the paper's Algorithm 1; the
// other three trade the binding-declaration property for delivery robustness
// in different ways (see the core package for the exact semantics).
const (
	// ProtocolBaseline runs Algorithm 1 unchanged — the default.
	ProtocolBaseline ProtocolVariant = "baseline"
	// ProtocolLiveRetarget re-samples vote targets from the current neighbor
	// set at send time; declared values stay binding, targets are advisory,
	// and verification drops the missing-vote direction.
	ProtocolLiveRetarget ProtocolVariant = "live-retarget"
	// ProtocolRetransmit re-pushes every vote to its declared target TTL
	// times in TTL voting passes of q rounds each (receivers dedup), keeping
	// strict verification at ≈ TTL× the voting message cost.
	ProtocolRetransmit ProtocolVariant = "retransmit"
	// ProtocolRelaxed accepts certificates with at least MinVotes of the q
	// per-voter consistency checks passing (k-of-q verification).
	ProtocolRelaxed ProtocolVariant = "relaxed"
)

// Protocol selects the protocol variant a scenario runs and its parameters.
// The zero value (and the explicit baseline) is Algorithm 1 unchanged. Like
// Dynamics, each variant accepts exactly its own parameters; stray fields are
// rejected so the canonical wire form stays unique.
type Protocol struct {
	// Variant names the protocol variant; "" defaults to baseline.
	Variant ProtocolVariant
	// TTL is the total number of times each vote is sent under
	// ProtocolRetransmit, in [2, core.MaxVotingPasses]; 0 defaults to 2.
	// The schedule grows to (3+TTL)·q+1 rounds. ProtocolRetransmit only.
	TTL int
	// MinVotes is the per-voter check threshold under ProtocolRelaxed, in
	// [1, q]; it must be explicit — a default would silently weaken
	// verification. ProtocolRelaxed only.
	MinVotes int
}

// Active reports whether p names a real variant (anything but the zero value
// and the explicit baseline).
func (p Protocol) Active() bool { return p.Variant != "" && p.Variant != ProtocolBaseline }

// FaultModel describes which nodes misbehave and how, plus the link-level
// loss model.
type FaultModel struct {
	Kind FaultKind
	// Alpha is the fraction of nodes affected, in [0, 1).
	Alpha float64
	// Round is the crash onset (FaultCrash only).
	Round int
	// Period is the up/down interval in rounds (FaultChurn only).
	Period int
	// Drop is the probabilistic message-loss rate, orthogonal to Kind: every
	// message crossing a link (push, pull query, pull reply) is lost
	// independently with this probability, generalizing per-node quiescence
	// to unreliable links. Senders still pay the communication cost, and a
	// puller cannot distinguish a lost exchange from a quiescent target.
	// Which messages are lost is a function of the run seed, so lossy runs
	// reproduce.
	// Must be in [0, 1); 0 disables loss. Not supported in coalition runs.
	Drop float64
}

// Scenario is a complete declarative description of one experiment setting.
// The zero value of every optional field means "the default": uniform
// colors, the protocol's default γ, the complete graph, no faults, the
// synchronous scheduler, no coalition.
type Scenario struct {
	// Name identifies the scenario in the registry and in reports.
	Name string
	// N is the network size.
	N int
	// Colors is |Σ|; 0 defaults to 2. Ignored (forced to N) under
	// ColorsLeader.
	Colors int
	// ColorInit selects the initial-opinion distribution; "" = uniform.
	ColorInit ColorInit
	// SplitFraction is the color-0 share under ColorsSplit (default 0.5).
	SplitFraction float64
	// ZipfS is the Zipf exponent under ColorsZipf (default 1.0).
	ZipfS float64
	// Gamma is the phase-length constant γ; 0 defaults to core.DefaultGamma
	// (core.DefaultAsyncGamma under the async scheduler).
	Gamma float64
	// Topology names the communication graph: "complete" (default), "ring",
	// "regular<d>" (random d-regular, e.g. "regular8"), or "er" (Erdős–Rényi
	// with average degree 16). Seeded graphs are built from Seed once and
	// shared by every trial.
	Topology string
	// Dynamics optionally turns the communication graph into a per-round
	// evolving process (see Dynamics); the zero value keeps the static
	// Topology. Only supported under the sync scheduler, without coalitions.
	Dynamics Dynamics
	// Protocol optionally selects a protocol variant that trades the binding
	// declarations of Algorithm 1 for delivery robustness (see Protocol); the
	// zero value runs the paper's protocol unchanged. Only supported under
	// the sync scheduler, without coalitions — faults, loss, and dynamics
	// are allowed (tolerating them is the point of the variants).
	Protocol Protocol
	// Fault is the fault model; the zero value means fault-free.
	Fault FaultModel
	// Scheduler is sync or async; "" = sync.
	Scheduler SchedulerKind
	// Coalition is the number of deviating agents; 0 = cooperative run.
	Coalition int
	// Deviation names the coalition's strategy (rational.DeviationByName);
	// required when Coalition > 0.
	Deviation string
	// Seed drives all randomness; trial seeds are split off it.
	Seed uint64
	// Workers is the trial-level parallelism for Runner.Trials and the
	// engine Act-phase parallelism for single runs (0 = GOMAXPROCS).
	Workers int
	// MaxTicks bounds async runs; 0 = the adaptation's default budget.
	MaxTicks int
}

// WithDefaults returns a copy of s with every zero optional field replaced
// by its documented default. Runner normalizes scenarios on construction;
// this is exposed so callers can inspect the effective setting.
func (s Scenario) WithDefaults() Scenario {
	if s.Scheduler == "" {
		s.Scheduler = SchedulerSync
	}
	if s.ColorInit == "" {
		s.ColorInit = ColorsUniform
	}
	if s.ColorInit == ColorsSplit && s.SplitFraction == 0 {
		s.SplitFraction = 0.5
	}
	if s.ColorInit == ColorsZipf && s.ZipfS == 0 {
		s.ZipfS = 1.0
	}
	if s.ColorInit == ColorsLeader {
		s.Colors = s.N
	}
	if s.Colors == 0 {
		s.Colors = 2
	}
	if s.Gamma == 0 {
		if s.Scheduler == SchedulerAsync {
			s.Gamma = core.DefaultAsyncGamma
		} else {
			s.Gamma = core.DefaultGamma
		}
	}
	if s.Topology == "" {
		s.Topology = "complete"
	}
	if s.Dynamics.Kind == "" {
		s.Dynamics.Kind = DynamicsNone
	}
	if s.Protocol.Variant == "" {
		s.Protocol.Variant = ProtocolBaseline
	}
	if s.Protocol.Variant == ProtocolRetransmit && s.Protocol.TTL == 0 {
		s.Protocol.TTL = 2
	}
	if s.Fault.Kind == "" {
		s.Fault.Kind = FaultNone
	}
	return s
}

// Validate checks a (defaults-applied) scenario for consistency. It returns
// the first problem found, phrased for CLI users.
func (s Scenario) Validate() error {
	s = s.WithDefaults()
	if s.N < 2 || s.N > core.MaxN {
		return fmt.Errorf("scenario: n = %d out of range [2, %d]", s.N, core.MaxN)
	}
	if s.Colors < 1 || s.Colors > s.N {
		return fmt.Errorf("scenario: colors = %d out of range [1, n]", s.Colors)
	}
	switch s.ColorInit {
	case ColorsUniform, ColorsLeader:
	case ColorsSplit:
		if s.SplitFraction < 0 || s.SplitFraction > 1 {
			return fmt.Errorf("scenario: split fraction %v outside [0, 1]", s.SplitFraction)
		}
		if s.Colors < 2 {
			return fmt.Errorf("scenario: split colors need |Σ| >= 2")
		}
	case ColorsZipf:
		if s.ZipfS < 0 {
			return fmt.Errorf("scenario: zipf exponent %v must be >= 0", s.ZipfS)
		}
	default:
		return fmt.Errorf("scenario: unknown color init %q (uniform|split|zipf|leader)", s.ColorInit)
	}
	if s.Gamma <= 0 {
		return fmt.Errorf("scenario: gamma = %v must be positive", s.Gamma)
	}
	if _, err := parseTopology(s.Topology, s.N); err != nil {
		return err
	}
	// Each dynamics kind accepts exactly its own parameters. Stray fields are
	// a silent misconfiguration (a document that forgot "kind" — or set a
	// rate the chosen process ignores — would otherwise run with them
	// silently dropped), and rejecting them keeps the canonical form unique:
	// the wire codec round-trips every accepted document bit for bit.
	strayDegree := func(kind string) error {
		if s.Dynamics.Degree != 0 || s.Dynamics.Jitter != 0 {
			return fmt.Errorf("scenario: degree/jitter parameters belong to d-regular or geometric dynamics, not %s", kind)
		}
		return nil
	}
	switch s.Dynamics.Kind {
	case DynamicsNone:
		if s.Dynamics.Birth != 0 || s.Dynamics.Death != 0 || s.Dynamics.Beta != 0 {
			return fmt.Errorf("scenario: dynamics parameters need a kind (edge-markovian|rewire-ring|d-regular|geometric)")
		}
		if err := strayDegree("an inactive dynamics"); err != nil {
			return err
		}
	case DynamicsEdgeMarkovian:
		if err := strayDegree("edge-markovian"); err != nil {
			return err
		}
		if s.Dynamics.Birth < 0 || s.Dynamics.Birth > 1 {
			return fmt.Errorf("scenario: edge birth probability %v outside [0, 1]", s.Dynamics.Birth)
		}
		if s.Dynamics.Death < 0 || s.Dynamics.Death > 1 {
			return fmt.Errorf("scenario: edge death probability %v outside [0, 1]", s.Dynamics.Death)
		}
		if s.Dynamics.Birth+s.Dynamics.Death == 0 {
			return fmt.Errorf("scenario: edge-markovian dynamics need birth + death > 0")
		}
		if s.N > topo.MaxDynamicN {
			return fmt.Errorf("scenario: edge-markovian dynamics support n up to %d; n = %d exceeds it",
				topo.MaxDynamicN, s.N)
		}
		// Admission is keyed on the memory that will actually exist: the
		// process is O(present edges) everywhere (hash-set membership plus
		// incremental adjacency — no per-pair state), and the stationary law
		// keeps ≈ π·n(n−1)/2 edges alive at once.
		pi := s.Dynamics.Birth / (s.Dynamics.Birth + s.Dynamics.Death)
		if expected := pi * float64(s.N) * float64(s.N-1) / 2; expected > topo.MaxDynamicEdges {
			return fmt.Errorf("scenario: edge-markovian dynamics expect %.0f simultaneous edges (stationary density %.3g at n = %d), over the %d-edge adjacency budget — lower birth/(birth+death) or n",
				expected, pi, s.N, topo.MaxDynamicEdges)
		}
	case DynamicsRewireRing:
		if err := strayDegree("rewire-ring"); err != nil {
			return err
		}
		if s.Dynamics.Beta < 0 || s.Dynamics.Beta > 1 {
			return fmt.Errorf("scenario: rewiring probability %v outside [0, 1]", s.Dynamics.Beta)
		}
		if s.N < 3 {
			return fmt.Errorf("scenario: rewire-ring dynamics need n >= 3")
		}
	case DynamicsDRegular:
		if s.Dynamics.Birth != 0 || s.Dynamics.Death != 0 || s.Dynamics.Beta != 0 || s.Dynamics.Jitter != 0 {
			return fmt.Errorf("scenario: d-regular dynamics take only a degree")
		}
		if s.N < 3 {
			return fmt.Errorf("scenario: d-regular dynamics need n >= 3")
		}
		if s.Dynamics.Degree < 2 || s.Dynamics.Degree >= s.N {
			return fmt.Errorf("scenario: d-regular degree %d outside [2, n)", s.Dynamics.Degree)
		}
		if s.N*s.Dynamics.Degree%2 != 0 {
			return fmt.Errorf("scenario: d-regular dynamics need n·degree even (n = %d, degree = %d)",
				s.N, s.Dynamics.Degree)
		}
		if edges := s.N * s.Dynamics.Degree / 2; edges > topo.MaxDynamicEdges {
			return fmt.Errorf("scenario: d-regular dynamics hold %d simultaneous edges, over the %d-edge adjacency budget — lower degree or n",
				edges, topo.MaxDynamicEdges)
		}
	case DynamicsGeometric:
		if s.Dynamics.Birth != 0 || s.Dynamics.Death != 0 || s.Dynamics.Beta != 0 {
			return fmt.Errorf("scenario: geometric dynamics take only a degree and a jitter")
		}
		if s.Dynamics.Degree < 1 {
			return fmt.Errorf("scenario: geometric degree %d must be >= 1", s.Dynamics.Degree)
		}
		if s.Dynamics.Jitter < 0 || s.Dynamics.Jitter > 1 {
			return fmt.Errorf("scenario: geometric jitter %v outside [0, 1]", s.Dynamics.Jitter)
		}
		// The cell grid needs at least 4 cells per side, i.e. connection
		// radius √(degree/(π·n)) ≤ ¼ — denser settings approach the complete
		// graph, which the static topologies already cover.
		if radius := math.Sqrt(float64(s.Dynamics.Degree) / (math.Pi * float64(s.N))); radius > 0.25 {
			return fmt.Errorf("scenario: geometric degree %d at n = %d gives connection radius %.3f > 0.25 — raise n or lower degree",
				s.Dynamics.Degree, s.N, radius)
		}
		if edges := s.N * s.Dynamics.Degree / 2; edges > topo.MaxDynamicEdges {
			return fmt.Errorf("scenario: geometric dynamics expect %d simultaneous edges, over the %d-edge adjacency budget — lower degree or n",
				edges, topo.MaxDynamicEdges)
		}
	default:
		return fmt.Errorf("scenario: unknown dynamics kind %q (none|edge-markovian|rewire-ring|d-regular|geometric)",
			s.Dynamics.Kind)
	}
	if s.Dynamics.Active() {
		if s.Topology != "complete" {
			return fmt.Errorf("scenario: dynamics %q defines its own graph process; leave topology at its default",
				s.Dynamics.Kind)
		}
		if s.Scheduler == SchedulerAsync {
			return fmt.Errorf("scenario: dynamic topologies are only supported under the sync scheduler")
		}
		if s.Coalition > 0 {
			return fmt.Errorf("scenario: coalition runs do not support dynamic topologies")
		}
	}
	// Like dynamics, each protocol variant accepts exactly its own
	// parameters; a stray TTL or min-votes is a silent misconfiguration
	// (most likely a document that named the wrong variant) and rejecting it
	// keeps the canonical wire form unique.
	switch s.Protocol.Variant {
	case ProtocolBaseline:
		if s.Protocol.TTL != 0 || s.Protocol.MinVotes != 0 {
			return fmt.Errorf("scenario: protocol parameters need a variant (live-retarget|retransmit|relaxed)")
		}
	case ProtocolLiveRetarget:
		if s.Protocol.TTL != 0 || s.Protocol.MinVotes != 0 {
			return fmt.Errorf("scenario: the live-retarget protocol takes no parameters")
		}
	case ProtocolRetransmit:
		if s.Protocol.MinVotes != 0 {
			return fmt.Errorf("scenario: min-votes belongs to the relaxed protocol, not retransmit")
		}
		if s.Protocol.TTL < 2 || s.Protocol.TTL > core.MaxVotingPasses {
			return fmt.Errorf("scenario: retransmit ttl %d outside [2, %d]", s.Protocol.TTL, core.MaxVotingPasses)
		}
	case ProtocolRelaxed:
		if s.Protocol.TTL != 0 {
			return fmt.Errorf("scenario: ttl belongs to the retransmit protocol, not relaxed")
		}
		// q depends on n and γ, both already validated above.
		p, err := core.NewParams(s.N, s.Colors, s.Gamma)
		if err != nil {
			return err
		}
		if s.Protocol.MinVotes < 1 || s.Protocol.MinVotes > p.Q {
			return fmt.Errorf("scenario: relaxed min-votes %d outside [1, q] (q = %d at n = %d, gamma = %g)",
				s.Protocol.MinVotes, p.Q, s.N, s.Gamma)
		}
	default:
		return fmt.Errorf("scenario: unknown protocol variant %q (baseline|live-retarget|retransmit|relaxed)",
			s.Protocol.Variant)
	}
	if s.Protocol.Active() {
		if s.Scheduler == SchedulerAsync {
			return fmt.Errorf("scenario: protocol variants are only supported under the sync scheduler")
		}
		if s.Coalition > 0 {
			return fmt.Errorf("scenario: coalition runs do not support protocol variants")
		}
	}
	switch s.Fault.Kind {
	case FaultNone:
	case FaultPermanent, FaultCrash, FaultChurn:
		if s.Fault.Alpha < 0 || s.Fault.Alpha >= 1 {
			return fmt.Errorf("scenario: fault fraction %v outside [0, 1)", s.Fault.Alpha)
		}
		if s.Fault.Kind == FaultCrash && s.Fault.Round < 0 {
			return fmt.Errorf("scenario: crash round %d must be >= 0", s.Fault.Round)
		}
		if s.Fault.Kind == FaultChurn && s.Fault.Period < 1 {
			return fmt.Errorf("scenario: churn period %d must be >= 1", s.Fault.Period)
		}
	default:
		return fmt.Errorf("scenario: unknown fault kind %q (none|permanent|crash|churn)", s.Fault.Kind)
	}
	if s.Fault.Drop < 0 || s.Fault.Drop >= 1 {
		return fmt.Errorf("scenario: drop probability %v outside [0, 1)", s.Fault.Drop)
	}
	switch s.Scheduler {
	case SchedulerSync:
	case SchedulerAsync:
		if s.Coalition > 0 {
			return fmt.Errorf("scenario: coalitions are only supported under the sync scheduler")
		}
	default:
		return fmt.Errorf("scenario: unknown scheduler %q (sync|async)", s.Scheduler)
	}
	if s.Coalition > 0 {
		if s.Deviation == "" {
			return fmt.Errorf("scenario: coalition of %d needs a deviation name", s.Coalition)
		}
		if s.Fault.Kind == FaultCrash || s.Fault.Kind == FaultChurn {
			return fmt.Errorf("scenario: coalition runs support only permanent faults")
		}
		if s.Fault.Drop > 0 {
			return fmt.Errorf("scenario: coalition runs do not support message loss")
		}
		active := s.N - permanentFaultCount(s)
		if s.Coalition > active-1 {
			return fmt.Errorf("scenario: coalition of %d leaves no honest active agent (active = %d)",
				s.Coalition, active)
		}
	}
	if s.Coalition < 0 {
		return fmt.Errorf("scenario: coalition size %d must be >= 0", s.Coalition)
	}
	if s.MaxTicks < 0 {
		return fmt.Errorf("scenario: max ticks %d must be >= 0", s.MaxTicks)
	}
	return nil
}

func permanentFaultCount(s Scenario) int {
	if s.Fault.Kind != FaultPermanent {
		return 0
	}
	return int(s.Fault.Alpha * float64(s.N))
}

// Params derives the protocol parameters of the (defaults-applied) scenario,
// including the protocol variant — the single point where the scenario axis
// reaches the executor.
func (s Scenario) Params() (core.Params, error) {
	s = s.WithDefaults()
	p, err := core.NewParams(s.N, s.Colors, s.Gamma)
	if err != nil {
		return p, err
	}
	return p.WithProtocol(core.Protocol{
		Variant:  core.ProtocolVariant(s.Protocol.Variant),
		Passes:   s.Protocol.TTL,
		MinVotes: s.Protocol.MinVotes,
	})
}

// colorStreamSalt separates the Zipf color stream from every other use of
// the scenario seed.
const colorStreamSalt = 0xc0104a11

// BuildColors materializes the initial color vector of the
// (defaults-applied) scenario. Zipf draws come from a private stream derived
// from Seed, so they never perturb the execution's randomness.
func (s Scenario) BuildColors() []core.Color {
	s = s.WithDefaults()
	switch s.ColorInit {
	case ColorsSplit:
		return core.SplitColors(s.N, s.SplitFraction)
	case ColorsLeader:
		return core.LeaderElectionColors(s.N)
	case ColorsZipf:
		return core.ZipfColors(s.N, s.Colors, s.ZipfS, rng.New(rng.Mix64(s.Seed, colorStreamSalt)))
	default:
		return core.UniformColors(s.N, s.Colors)
	}
}

// BuildDynamics materializes a fresh, unstarted graph process for the
// (defaults-applied) scenario, or nil for static topologies. Unlike the
// static graph, a process is per-run mutable state and must never be shared:
// each run needs its own instance, which core.Run starts from the run seed
// (so two runs at one seed see bit-identical edge sets round for round).
func (s Scenario) BuildDynamics() topo.Dynamic {
	s = s.WithDefaults()
	switch s.Dynamics.Kind {
	case DynamicsEdgeMarkovian:
		return topo.NewEdgeMarkovian(s.N, s.Dynamics.Birth, s.Dynamics.Death)
	case DynamicsRewireRing:
		return topo.NewRewireRing(s.N, s.Dynamics.Beta)
	case DynamicsDRegular:
		return topo.NewDRegular(s.N, s.Dynamics.Degree)
	case DynamicsGeometric:
		return topo.NewGeometric(s.N, float64(s.Dynamics.Degree), s.Dynamics.Jitter)
	default:
		return nil
	}
}

// BuildTopology materializes the static communication graph of the
// (defaults-applied) scenario. Seeded graph families use Seed, so every
// trial of one scenario shares one graph. When the scenario has active
// Dynamics the static graph is only the nominal substrate — runs replace it
// with a per-run BuildDynamics process.
func (s Scenario) BuildTopology() (topo.Topology, error) {
	s = s.WithDefaults()
	build, err := parseTopology(s.Topology, s.N)
	if err != nil {
		return nil, err
	}
	return build(s.Seed), nil
}

// parseTopology validates a topology name against n and returns the builder,
// without constructing the graph — Validate uses it so that validation stays
// O(1) even for large seeded graph families.
func parseTopology(name string, n int) (func(seed uint64) topo.Topology, error) {
	switch low := strings.ToLower(name); {
	case low == "complete" || low == "":
		return func(uint64) topo.Topology { return topo.NewComplete(n) }, nil
	case low == "ring":
		if n < 3 {
			return nil, fmt.Errorf("scenario: ring topology needs n >= 3")
		}
		return func(uint64) topo.Topology { return topo.NewRing(n) }, nil
	case low == "er":
		return func(seed uint64) topo.Topology {
			return topo.NewErdosRenyi(n, 16.0/float64(n), seed)
		}, nil
	case strings.HasPrefix(low, "regular"):
		d, err := strconv.Atoi(strings.TrimPrefix(low, "regular"))
		if err != nil || d < 2 {
			return nil, fmt.Errorf("scenario: bad regular topology %q (want e.g. regular8 with degree >= 2)", name)
		}
		if n < 3 {
			return nil, fmt.Errorf("scenario: regular topology needs n >= 3")
		}
		return func(seed uint64) topo.Topology { return topo.NewRandomRegular(n, d, seed) }, nil
	default:
		return nil, fmt.Errorf("scenario: unknown topology %q (complete|ring|regular<d>|er)", name)
	}
}

// BuildFaults materializes the fault model of the (defaults-applied)
// scenario as the three pieces the protocol runners consume: the permanent
// round-0 mask (agentless nodes), the dynamic quiescence schedule, and the
// mask of agent-bearing nodes the schedule affects (excluded from agreement
// like faulty ones).
func (s Scenario) BuildFaults() (faulty []bool, sched gossip.FaultSchedule, unreliable []bool) {
	s = s.WithDefaults()
	if s.Fault.Kind == FaultNone || s.Fault.Alpha == 0 {
		return nil, nil, nil
	}
	mask := core.WorstCaseFaults(s.N, s.Fault.Alpha)
	switch s.Fault.Kind {
	case FaultPermanent:
		return mask, nil, nil
	case FaultCrash:
		return nil, gossip.CrashSchedule{Mask: mask, Round: s.Fault.Round}, mask
	case FaultChurn:
		return nil, gossip.ChurnSchedule{Mask: mask, Period: s.Fault.Period}, mask
	default:
		return nil, nil, nil
	}
}

// CoalitionMembers spreads the (defaults-applied) scenario's coalition
// deterministically across the active (non-faulty) ID space, matching the
// experiment harness's historical placement.
func (s Scenario) CoalitionMembers() []int {
	s = s.WithDefaults()
	if s.Coalition <= 0 {
		return nil
	}
	faulty, _, _ := s.BuildFaults()
	var active []int
	for i := 0; i < s.N; i++ {
		if faulty == nil || !faulty[i] {
			active = append(active, i)
		}
	}
	t := s.Coalition
	if t > len(active) {
		t = len(active)
	}
	members := make([]int, 0, t)
	seen := map[int]bool{}
	for i := 0; i < t; i++ {
		id := active[(i*len(active))/t]
		if !seen[id] {
			seen[id] = true
			members = append(members, id)
		}
	}
	return members
}
