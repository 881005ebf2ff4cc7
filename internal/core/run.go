package core

import (
	"fmt"
	"math"

	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
)

// RunConfig describes one cooperative (all-honest) protocol execution.
type RunConfig struct {
	Params Params
	// Colors assigns the initial color of every node (length N). Entries for
	// faulty nodes are ignored.
	Colors []Color
	// Faulty marks the worst-case permanent faults; nil = fault-free.
	Faulty []bool
	// Faults optionally adds a dynamic quiescence schedule (crash-at-round-r,
	// churn) on top of Faulty. Nodes it affects still get honest agents and
	// participate whenever the schedule lets them.
	Faults gossip.FaultSchedule
	// Unreliable marks the nodes affected by Faults. Like faulty nodes they
	// are excluded from the agreement requirement and from the good-execution
	// check, but unlike faulty nodes they run agents. nil = none.
	Unreliable []bool
	// Seed drives all randomness of the execution.
	Seed uint64
	// Drop is the probabilistic message-loss rate: every message crossing a
	// link is lost independently with this probability (gossip.Config.Drop).
	// The loss decisions are keyed from Seed, so lossy runs stay reproducible.
	// Must be in [0, 1); 0 disables loss.
	Drop float64
	// Topology defaults to the complete graph on N nodes when nil. A
	// topo.Dynamic topology (per-round graph process) is per-run mutable
	// state — pass a private instance; Run starts it from a stream derived
	// off Seed and the engine advances it once per round.
	Topology topo.Topology
	// Workers is the engine Act-phase parallelism (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Trace optionally receives engine events.
	Trace trace.Sink
	// Pool optionally supplies reusable per-run state. A pooled run produces
	// byte-identical results but its RunResult aliases pool memory — see
	// RunPool for the ownership rules. nil runs with private state.
	Pool *RunPool
}

// RunResult is the observable result of one execution.
type RunResult struct {
	Outcome Outcome
	Rounds  int
	Metrics metrics.Snapshot
	Good    GoodExecution
	// Agents exposes the honest agents for deeper inspection. For a pooled
	// run (RunConfig.Pool set) the agents live in the pool and are only valid
	// until the pool's next run; Outcome, Rounds, Metrics, and Good are plain
	// values and always safe to retain.
	Agents []*Agent
}

// dropStreamSalt separates the message-loss key from every other use of the
// run seed.
const dropStreamSalt = 0xd10bab1e

// dynamicsStreamSalt separates a dynamic topology's edge-process stream from
// every other use of the run seed, so the graph evolution never perturbs the
// agents' (or the loss model's) randomness.
const dynamicsStreamSalt = 0x9a51f10e

// startDynamics starts a per-round graph process from the run seed. It must
// run before any agent is built: the agents' round-0 intention targets are
// sampled from the process's round-0 edge set. Two runs at the same seed see
// bit-identical edge sets round for round.
func startDynamics(net topo.Topology, seed uint64) {
	if dyn, ok := net.(topo.Dynamic); ok {
		dyn.Start(rng.Mix64(seed, dynamicsStreamSalt))
	}
}

// RunSetup is a prepared cooperative execution: agents built and seeded,
// dynamics started, counters reset — everything a scheduler needs to drive
// the rounds, plus the pieces to assemble the RunResult afterwards. The
// in-process engine (Run) and the message-passing runtime
// (internal/runtime) both execute off one PrepareRun, which is what makes
// their executions comparable seed for seed: the agents, their RNG streams,
// and the loss key are bit-identical regardless of which scheduler delivers
// the messages.
type RunSetup struct {
	// Params are the protocol parameters of the run.
	Params Params
	// Net is the communication graph, already Started when dynamic.
	Net topo.Topology
	// Agents holds the agents as the delivery layer consumes them;
	// Agents[i] is nil exactly where Faulty[i] is set.
	Agents []gossip.Agent
	// Faulty is the permanent round-0 fault mask (may be nil).
	Faulty []bool
	// Faults is the optional dynamic quiescence schedule (may be nil).
	Faults gossip.FaultSchedule
	// Drop and DropRand are the probabilistic message-loss model: DropRand
	// is non-nil iff Drop > 0 and is derived from the run seed.
	Drop     float64
	DropRand *rng.Source
	// Counters receives the execution's communication accounting.
	Counters *metrics.Counters
	// Trace is the run's event sink (may be nil).
	Trace trace.Sink
	// MaxRounds is the round budget Run would give the engine.
	MaxRounds int

	cfg RunConfig
	pl  *RunPool
}

// PrepareRun validates cfg and builds the per-run state every scheduler
// shares: it starts a dynamic topology from the seed, seeds and resets the
// pooled agents, and derives the loss key. The caller executes the rounds
// (through gossip.NewEngine or a runtime scheduler) and then calls Result. The
// returned setup lives in cfg.Pool and is valid until the pool's next run.
func PrepareRun(cfg RunConfig) (*RunSetup, error) {
	p := cfg.Params
	if len(cfg.Colors) != p.N {
		return nil, fmt.Errorf("core: %d colors for n = %d", len(cfg.Colors), p.N)
	}
	net := cfg.Topology
	if net == nil {
		net = topo.NewComplete(p.N)
	}
	if net.N() != p.N {
		return nil, fmt.Errorf("core: topology has %d nodes, params n = %d", net.N(), p.N)
	}
	if cfg.Unreliable != nil && len(cfg.Unreliable) != p.N {
		return nil, fmt.Errorf("core: unreliable mask has %d entries for n = %d", len(cfg.Unreliable), p.N)
	}
	if cfg.Drop < 0 || cfg.Drop >= 1 {
		return nil, fmt.Errorf("core: drop probability %v outside [0, 1)", cfg.Drop)
	}
	startDynamics(net, cfg.Seed)
	pl := cfg.Pool
	if pl == nil {
		pl = &RunPool{} // private, thrown away with the result
	}
	pl.ensure(p.N)
	pl.master.Reseed(cfg.Seed)
	for i := 0; i < p.N; i++ {
		if cfg.Faulty != nil && cfg.Faulty[i] {
			pl.gagents[i] = nil
			pl.parts[i] = nil
			continue
		}
		if !cfg.Colors[i].Valid(p.NumColors) {
			return nil, fmt.Errorf("core: node %d has color %d outside Σ", i, cfg.Colors[i])
		}
		a := &pl.store[i]
		a.reset(i, &p, cfg.Colors[i], net, pl.master.SplitSeed(uint64(i)))
		pl.gagents[i] = a
		pl.parts[i] = a
		pl.honest = append(pl.honest, a)
		if cfg.Unreliable == nil || !cfg.Unreliable[i] {
			pl.reliable = append(pl.reliable, a)
		}
	}
	pl.counters.Reset()
	var dropRand *rng.Source
	if cfg.Drop > 0 {
		// A private source derived from the run seed keys the loss decisions,
		// so lossy executions are reproducible without perturbing the agents'
		// randomness; the pool slot keeps the hot batch path allocation-free.
		pl.droprng.Reseed(rng.Mix64(cfg.Seed, dropStreamSalt))
		dropRand = &pl.droprng
	}
	// The setup lives in the pool for the same reason: one heap object per
	// trial is what a warmed batch would otherwise still allocate here.
	pl.setup = RunSetup{
		Params:    p,
		Net:       net,
		Agents:    pl.gagents,
		Faulty:    cfg.Faulty,
		Faults:    cfg.Faults,
		Drop:      cfg.Drop,
		DropRand:  dropRand,
		Counters:  &pl.counters,
		Trace:     cfg.Trace,
		MaxRounds: p.TotalRounds() + 1,
		cfg:       cfg,
		pl:        pl,
	}
	return &pl.setup, nil
}

// Mem exposes the pooled engine scratch space so the in-process engine can
// stay allocation-free across pooled runs.
func (s *RunSetup) Mem() *gossip.EngineMem { return &s.pl.mem }

// Result evaluates the finished execution: agreement over the active
// participants, the communication snapshot, and the Definition-2 check.
// rounds is the number of rounds the scheduler executed.
func (s *RunSetup) Result(rounds int) RunResult {
	cfg, pl := s.cfg, s.pl
	excluded := cfg.Faulty
	if cfg.Unreliable != nil {
		excluded = pl.ensureExcluded(cfg.Params.N)
		for i := range excluded {
			excluded[i] = (cfg.Faulty != nil && cfg.Faulty[i]) || cfg.Unreliable[i]
		}
	}
	return RunResult{
		Outcome: CollectOutcome(pl.parts, excluded),
		Rounds:  rounds,
		Metrics: pl.counters.Snapshot(),
		Good:    checkGoodExecution(&cfg.Params, pl.reliable, &pl.ks),
		Agents:  pl.honest,
	}
}

// Run executes Protocol P with all agents honest and returns the outcome.
// It is the cooperative-setting experiment of Section 3.1.
func Run(cfg RunConfig) (RunResult, error) {
	s, err := PrepareRun(cfg)
	if err != nil {
		return RunResult{}, err
	}
	eng := gossip.NewEngine(gossip.Config{
		Topology: s.Net,
		Faulty:   s.Faulty,
		Faults:   s.Faults,
		Counters: s.Counters,
		Trace:    s.Trace,
		Workers:  cfg.Workers,
		Drop:     s.Drop,
		DropRand: s.DropRand,
		Mem:      s.Mem(),
	}, s.Agents)
	rounds := eng.Run(s.MaxRounds)
	return s.Result(rounds), nil
}

// UniformColors assigns colors round-robin so each of numColors colors gets
// an (almost) equal share of the n nodes.
func UniformColors(n, numColors int) []Color {
	out := make([]Color, n)
	for i := range out {
		out[i] = Color(i % numColors)
	}
	return out
}

// SplitColors assigns the first ⌊fraction·n⌋ nodes color 0 and the rest
// color 1. It panics unless 0 ≤ fraction ≤ 1.
func SplitColors(n int, fraction float64) []Color {
	if fraction < 0 || fraction > 1 {
		panic("core: SplitColors fraction out of range")
	}
	cut := int(fraction * float64(n))
	out := make([]Color, n)
	for i := range out {
		if i < cut {
			out[i] = 0
		} else {
			out[i] = 1
		}
	}
	return out
}

// ZipfColors assigns each node an independent color drawn from a Zipf
// distribution over Σ: Pr[color = c] ∝ 1/(c+1)^s, so color 0 dominates and
// the tail thins polynomially — the skewed-opinion workload. s = 0 recovers
// the uniform distribution. All randomness comes from r.
func ZipfColors(n, numColors int, s float64, r *rng.Source) []Color {
	if numColors < 1 {
		panic("core: ZipfColors needs numColors >= 1")
	}
	weights := make([]float64, numColors)
	total := 0.0
	for c := range weights {
		weights[c] = math.Pow(float64(c+1), -s)
		total += weights[c]
	}
	out := make([]Color, n)
	for i := range out {
		x := r.Float64() * total
		for c, w := range weights {
			x -= w
			if x < 0 || c == numColors-1 {
				out[i] = Color(c)
				break
			}
		}
	}
	return out
}

// LeaderElectionColors gives every node its own color (color = ID), turning
// fair consensus into fair leader election, the special case highlighted in
// Sections 1–2.
func LeaderElectionColors(n int) []Color {
	out := make([]Color, n)
	for i := range out {
		out[i] = Color(i)
	}
	return out
}

// WorstCaseFaults marks the first ⌊α·n⌋ nodes faulty — a deterministic
// adversarial placement (IDs are exchangeable, so any fixed set is as
// adversarial as any other for this protocol).
func WorstCaseFaults(n int, alpha float64) []bool {
	if alpha < 0 || alpha >= 1 {
		panic("core: WorstCaseFaults needs 0 ≤ α < 1")
	}
	f := make([]bool, n)
	for i := 0; i < int(alpha*float64(n)); i++ {
		f[i] = true
	}
	return f
}
