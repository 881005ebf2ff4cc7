// Package rational models the non-cooperative setting of Section 3.2: selfish
// agents with the paper's normalized payoff scheme (1 for one's own color,
// 0 for any other color, −χ for failure), coalitions of deviating agents, and
// a game harness that measures whether a deviation improves any coalition
// member's expected utility — the empirical content of the whp t-strong
// equilibrium claim (Theorem 7, Definition 1).
//
// Coalition members coordinate through shared memory, which strictly
// over-approximates anything a coalition could arrange over GOSSIP channels;
// a no-profit result against these deviations is therefore evidence for the
// equilibrium, not a weakening of the adversary.
package rational

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/topo"
)

// Utility is the paper's payoff scheme, parametrized by the failure penalty
// χ ≥ 0.
type Utility struct {
	Chi float64
}

// Of returns an agent's payoff for an outcome given its supported color:
// 1 if its color won, −χ on failure, 0 otherwise.
func (u Utility) Of(pref core.Color, o core.Outcome) float64 {
	if o.Failed {
		return -u.Chi
	}
	if o.Color == pref {
		return 1
	}
	return 0
}

// Coalition is the shared blackboard deviating agents coordinate through.
// All exported methods are safe for concurrent use (the engine may run Act
// in parallel).
type Coalition struct {
	Members []int

	mu sync.Mutex
	// intel holds commitment declarations harvested by any member, keyed by
	// the declaring agent.
	intel map[int32][]core.Intent
	// certs holds members' true certificates once finalized.
	certs map[int]*core.Certificate
	// chosen caches the promoted certificate (e.g. coalition-minimal).
	chosen *core.Certificate
}

// NewCoalition returns an empty blackboard for the given member IDs.
func NewCoalition(members []int) *Coalition {
	return &Coalition{
		Members: append([]int(nil), members...),
		intel:   make(map[int32][]core.Intent),
		certs:   make(map[int]*core.Certificate),
	}
}

// Contains reports whether id is a coalition member.
func (c *Coalition) Contains(id int) bool {
	for _, m := range c.Members {
		if m == id {
			return true
		}
	}
	return false
}

// ShareIntel stores a harvested declaration (first one wins, matching the
// binding-declaration rule).
func (c *Coalition) ShareIntel(voter int32, intents []core.Intent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.intel[voter]; !ok {
		c.intel[voter] = append([]core.Intent(nil), intents...)
	}
}

// Intel returns the harvested declaration for voter, if any.
func (c *Coalition) Intel(voter int32) ([]core.Intent, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in, ok := c.intel[voter]
	return in, ok
}

// IntelSize returns how many declarations were harvested.
func (c *Coalition) IntelSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.intel)
}

// RegisterCert publishes a member's true certificate.
func (c *Coalition) RegisterCert(id int, cert *core.Certificate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.certs[id] = cert
}

// MinCert returns the registered certificate with the smallest k, or nil if
// none registered yet. The result is cached once all members registered.
func (c *Coalition) MinCert() *core.Certificate {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chosen != nil {
		return c.chosen
	}
	var best *core.Certificate
	for _, cert := range c.certs {
		if best == nil || cert.Less(best) {
			best = cert
		}
	}
	if best != nil && len(c.certs) == len(c.Members) {
		c.chosen = best
	}
	return best
}

// BuildContext carries everything a Deviation needs to construct its agents.
type BuildContext struct {
	Params    core.Params
	Topology  topo.Topology
	Colors    []core.Color
	Coalition *Coalition
	// Rng is the coalition's private randomness; Build should Split it per
	// member.
	Rng *rng.Source
}

// Deviation builds the coalition's (restricted protocol) agents. Build must
// return one agent per ctx.Coalition.Members entry, in order; each returned
// agent must also implement core.Participant.
type Deviation interface {
	Name() string
	Build(ctx *BuildContext) []gossip.Agent
}

// GameConfig describes one execution of (P₋C, P′C).
type GameConfig struct {
	Params    core.Params
	Colors    []core.Color
	Faulty    []bool
	Coalition []int
	Deviation Deviation
	Seed      uint64
	Workers   int
	Topology  topo.Topology // nil = complete graph
}

// GameResult reports one execution against a deviating coalition.
type GameResult struct {
	Outcome core.Outcome
	Metrics metrics.Snapshot
	// CoalitionColorWon reports whether the winning color is supported by
	// some coalition member.
	CoalitionColorWon bool
	// HonestAgents exposes the honest agents for inspection.
	HonestAgents []*core.Agent
}

// RunGame executes Protocol P where the agents in cfg.Coalition follow
// cfg.Deviation and everyone else follows P honestly.
func RunGame(cfg GameConfig) (GameResult, error) {
	p := cfg.Params
	if len(cfg.Colors) != p.N {
		return GameResult{}, fmt.Errorf("rational: %d colors for n = %d", len(cfg.Colors), p.N)
	}
	net := cfg.Topology
	if net == nil {
		net = topo.NewComplete(p.N)
	}
	if net.N() != p.N {
		return GameResult{}, fmt.Errorf("rational: topology has %d nodes, params n = %d", net.N(), p.N)
	}
	inCoalition := make(map[int]bool, len(cfg.Coalition))
	for _, id := range cfg.Coalition {
		if id < 0 || id >= p.N {
			return GameResult{}, fmt.Errorf("rational: coalition member %d out of range", id)
		}
		if cfg.Faulty != nil && cfg.Faulty[id] {
			return GameResult{}, fmt.Errorf("rational: coalition member %d is faulty", id)
		}
		if inCoalition[id] {
			return GameResult{}, fmt.Errorf("rational: duplicate coalition member %d", id)
		}
		inCoalition[id] = true
	}
	master := rng.New(cfg.Seed)
	agents := make([]gossip.Agent, p.N)
	var honest []*core.Agent
	for i := 0; i < p.N; i++ {
		if cfg.Faulty != nil && cfg.Faulty[i] {
			continue
		}
		if !cfg.Colors[i].Valid(p.NumColors) {
			return GameResult{}, fmt.Errorf("rational: node %d has color %d outside Σ", i, cfg.Colors[i])
		}
		if inCoalition[i] {
			continue
		}
		a := core.NewAgent(i, p, cfg.Colors[i], net, master.Split(uint64(i)))
		agents[i] = a
		honest = append(honest, a)
	}
	if len(cfg.Coalition) > 0 {
		if cfg.Deviation == nil {
			return GameResult{}, fmt.Errorf("rational: coalition without deviation")
		}
		ctx := &BuildContext{
			Params:    p,
			Topology:  net,
			Colors:    cfg.Colors,
			Coalition: NewCoalition(cfg.Coalition),
			Rng:       master.Split(1 << 62),
		}
		devs := cfg.Deviation.Build(ctx)
		if len(devs) != len(cfg.Coalition) {
			return GameResult{}, fmt.Errorf("rational: deviation built %d agents for %d members",
				len(devs), len(cfg.Coalition))
		}
		for i, id := range cfg.Coalition {
			if _, ok := devs[i].(core.Participant); !ok {
				return GameResult{}, fmt.Errorf("rational: deviation agent %d is not a Participant", id)
			}
			agents[id] = devs[i]
		}
	}
	var counters metrics.Counters
	eng := gossip.NewEngine(gossip.Config{
		Topology: net,
		Faulty:   cfg.Faulty,
		Counters: &counters,
		Workers:  cfg.Workers,
	}, agents)
	eng.Run(p.TotalRounds() + 1)

	parts := make([]core.Participant, p.N)
	for i, ag := range agents {
		if ag != nil {
			parts[i] = ag.(core.Participant)
		}
	}
	outcome := core.CollectOutcome(parts, cfg.Faulty)
	won := false
	if !outcome.Failed {
		for _, id := range cfg.Coalition {
			if cfg.Colors[id] == outcome.Color {
				won = true
				break
			}
		}
	}
	return GameResult{
		Outcome:           outcome,
		Metrics:           counters.Snapshot(),
		CoalitionColorWon: won,
		HonestAgents:      honest,
	}, nil
}
