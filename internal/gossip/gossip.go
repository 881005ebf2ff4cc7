// Package gossip implements the paper's communication model (Section 2): a
// synchronous network of n nodes where, in every round, each node actively
// performs at most one push or one pull operation towards one peer, while
// passively receiving any number of messages. Channels are secure: the engine
// stamps the true sender identity on every delivery, so agents can lie about
// payload content but never about who they are — exactly the paper's
// assumption that peers "cannot cheat each other about their IDs".
//
// Faults are first-class and pluggable (FaultSchedule): the paper's permanent
// worst-case faults (a node quiescent from round 0 — it never acts, never
// receives, and never answers a pull), crash-at-round-r faults, and periodic
// churn. An active agent that deliberately ignores a pull is indistinguishable
// from a quiescent one at the puller, which is precisely the "pretend to be
// faulty" deviation the protocol must tolerate.
//
// Both execution models are thin schedulers over one shared Executor that
// owns the delivery semantics exactly once: Engine runs synchronous rounds
// (every agent acts, then pushes and pulls resolve in node-ID order) and
// AsyncEngine runs the sequential GOSSIP model of the paper's second open
// problem (one random node awake per tick). The message-passing runtime
// (internal/runtime) is the Executor's third client: it carries operations
// over a transport but decides and settles them through the same methods.
package gossip

import (
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Payload is any message content. SizeBits must return the wire size used
// for communication-complexity accounting; it should reflect the information
// content (e.g. a vote is O(log n) bits, a certificate O(log² n)).
type Payload interface {
	SizeBits() int
}

// ActionKind enumerates what an agent does with its one active operation.
type ActionKind uint8

// The three possible uses of a round's active slot.
const (
	ActNone ActionKind = iota
	ActPush
	ActPull
)

// Action is an agent's single active operation for a round.
type Action struct {
	Kind    ActionKind
	To      int
	Payload Payload // pushed content, or the pull query
}

// NoAction returns the idle action.
func NoAction() Action { return Action{Kind: ActNone} }

// PushTo builds a push action.
func PushTo(to int, p Payload) Action { return Action{Kind: ActPush, To: to, Payload: p} }

// PullFrom builds a pull action with the given query payload.
func PullFrom(to int, query Payload) Action { return Action{Kind: ActPull, To: to, Payload: query} }

// Agent is a protocol participant. The engine calls the methods in a fixed
// per-round order: Act for every agent first, then HandlePush deliveries,
// then HandlePull/HandlePullReply exchanges. Act and the handlers for one
// agent are never invoked concurrently; Act may run in parallel across
// different agents, so it must touch only its own agent's state.
type Agent interface {
	// Act returns the agent's single active operation for the round.
	Act(round int) Action
	// HandlePush receives a payload pushed by from in this round.
	HandlePush(round, from int, p Payload)
	// HandlePull answers a pull request; returning nil refuses to answer
	// (the puller observes the same silence a faulty node would produce).
	HandlePull(round, from int, query Payload) Payload
	// HandlePullReply receives the answer to this agent's pull. reply is nil
	// when the target was faulty, silent, or the pull was dropped.
	HandlePullReply(round, from int, reply Payload)
}

// Decider is implemented by agents that eventually fix an output. The engine
// uses it for early termination and outcome collection.
type Decider interface {
	// Decided reports whether the agent has reached a final state.
	Decided() bool
	// Output returns the final value (protocol-defined) once Decided.
	Output() int
}

// Config configures an Engine or AsyncEngine.
type Config struct {
	// Topology is the communication graph. A topo.Dynamic topology (a
	// per-round graph process) must be Started by the caller before the
	// engine is built — its round-0 edge set is part of run setup — and is
	// then advanced by the engine exactly once per round (or tick).
	Topology topo.Topology
	// Faulty marks permanently faulty nodes; nil means fault-free. The slice
	// length must equal Topology.N(). Nodes in this mask may have no agent.
	Faulty []bool
	// Faults optionally adds a dynamic quiescence schedule (crash, churn) on
	// top of Faulty. Nodes it silences must still have agents: they
	// participate whenever the schedule lets them.
	Faults FaultSchedule
	// Counters receives communication accounting; nil allocates a private one.
	Counters *metrics.Counters
	// Trace receives events; nil disables tracing.
	Trace trace.Sink
	// Workers is the parallelism for the Act phase; 0 means GOMAXPROCS,
	// 1 forces sequential.
	Workers int
	// Drop is the probabilistic message-loss rate: every message that crosses
	// a link — a push, a pull query, or a pull reply — is lost independently
	// with this probability. Self-operations are local and never lost. The
	// sender always pays the communication cost: it cannot know the message
	// was lost, and a puller whose query or reply is lost observes the same
	// silence a quiescent target would produce. Must be in [0, 1).
	Drop float64
	// DropRand keys the loss decisions; required when Drop > 0. It is read,
	// never advanced: whether a message is lost is a function of the source's
	// seed lineage and the crossing's (round, sender, receiver, leg) — see
	// Loss — so executions stay deterministic for a given source whatever
	// order deliveries are decided in.
	DropRand *rng.Source
	// Mem optionally supplies reusable engine memory, so a trial loop can run
	// many engines without reallocating per-round buffers. See EngineMem.
	Mem *EngineMem
}

// EngineMem holds an Engine plus its per-round scratch (action buffer,
// push/pull delivery order, fault-mask scratch) for reuse across runs. Pass
// the same EngineMem to successive NewEngine calls — never to two live
// engines at once — and the whole engine setup becomes allocation-free. The
// zero value is ready to use.
type EngineMem struct {
	engine Engine
}

// Engine executes synchronous GOSSIP rounds over a set of agents.
type Engine struct {
	x       Executor
	workers int
	round   int
	actions []Action // scratch, reused across rounds
	pushes  []int32  // node IDs pushing this round, ascending
	pulls   []int32  // node IDs pulling this round, ascending
}

// NewEngine builds an engine for the given agents. agents[i] is the agent at
// node i; entries for faulty nodes may be nil. It panics on size mismatches
// so misconfigured experiments fail loudly. When cfg.Mem is set the returned
// engine reuses that memory instead of allocating.
func NewEngine(cfg Config, agents []Agent) *Engine {
	e := &Engine{}
	if cfg.Mem != nil {
		e = &cfg.Mem.engine
		e.round = 0
	}
	e.x.Init(cfg, agents)
	e.workers = cfg.Workers
	if cap(e.actions) < len(agents) {
		e.actions = make([]Action, len(agents))
	}
	e.actions = e.actions[:len(agents)]
	return e
}

// act records node i's action for the round (NoAction when silenced).
func (e *Engine) act(round, i int) {
	if e.x.Silent(round, i) {
		e.actions[i] = NoAction()
		return
	}
	e.actions[i] = e.x.agents[i].Act(round)
}

// Round returns the number of rounds executed so far.
func (e *Engine) Round() int { return e.round }

// Counters returns the engine's communication counters.
func (e *Engine) Counters() *metrics.Counters { return e.x.counters }

// DroppedActions returns how many actions were discarded because they
// addressed a non-neighbor or an out-of-range node.
func (e *Engine) DroppedActions() int { return e.x.Dropped() }

// Step executes one synchronous round: collect every active agent's action
// (possibly in parallel), deliver pushes in node-ID order, then resolve pulls
// in node-ID order. The fixed orders make executions deterministic for a
// given seed assignment regardless of Workers.
func (e *Engine) Step() {
	n := len(e.x.agents)
	round := e.round

	// A dynamic topology evolves at the round boundary, before the parallel
	// Act phase below samples peers from it.
	e.x.Advance(round)

	// Decision phase: agents choose their one active operation. Safe to
	// parallelize because Act only touches the agent's own state. The serial
	// path is open-coded: a closure capturing the changing round would
	// otherwise be this loop's only allocation.
	if e.workers == 1 || n < 32 {
		for i := 0; i < n; i++ {
			e.act(round, i)
		}
	} else {
		par.ForN(e.workers, n, func(i int) { e.act(round, i) })
	}

	// Validate actions against the topology and collect the delivery order.
	e.pushes, e.pulls = e.x.Plan(round, e.actions, e.pushes, e.pulls)

	// Push delivery phase, then pull phase, both in node-ID order.
	e.x.carry(round, e.actions, e.pushes)
	e.x.carry(round, e.actions, e.pulls)

	e.x.EndRound()
	e.round++
}

// Run executes rounds until every active Decider agent has decided, or until
// maxRounds have been executed. It returns the number of rounds run.
func (e *Engine) Run(maxRounds int) int {
	start := e.round
	for e.round-start < maxRounds {
		if e.x.AllDecided(e.round) {
			break
		}
		e.Step()
	}
	return e.round - start
}

// AsyncEngine implements the sequential GOSSIP model from the paper's second
// open problem: at every tick exactly one agent, chosen uniformly at random
// among the active ones, wakes up and performs one push or pull. All other
// semantics (secure channels, quiescent faults, accounting) are the shared
// executor's and therefore match Engine exactly.
type AsyncEngine struct {
	x       Executor
	active  []int    // indices of round-0-active nodes, for uniform waking
	actions []Action // the woken node's action, at its index
	woken   [1]int32 // the tick's one-operation wave
	r       *rng.Source
	tick    int
}

// NewAsyncEngine builds a sequential-GOSSIP engine; sched drives the wake-up
// choices. Panics mirror NewEngine's.
func NewAsyncEngine(cfg Config, agents []Agent, sched *rng.Source) *AsyncEngine {
	e := &AsyncEngine{r: sched, actions: make([]Action, len(agents))}
	e.x.Init(cfg, agents)
	for i := range agents {
		if !e.x.initial[i] {
			e.active = append(e.active, i)
		}
	}
	return e
}

// Tick wakes one uniformly random active agent and executes its action
// through the shared executor. The tick number is passed to the agent as its
// "round". A woken agent that the fault schedule currently silences sleeps
// through its wake-up: the tick elapses with no action.
func (e *AsyncEngine) Tick() {
	// A dynamic topology evolves once per tick (the sequential model's round),
	// whether or not anyone wakes: the graph process is time's, not the
	// agents'.
	e.x.Advance(e.tick)
	if len(e.active) == 0 {
		e.tick++
		return
	}
	u := e.active[e.r.Intn(len(e.active))]
	if !e.x.Silent(e.tick, u) {
		a := &e.actions[u]
		*a = e.x.agents[u].Act(e.tick)
		if e.x.validate(e.tick, u, a); a.Kind != ActNone {
			e.woken[0] = int32(u)
			e.x.carry(e.tick, e.actions, e.woken[:])
		}
	}
	e.x.EndRound()
	e.tick++
}

// Run ticks until all active Decider agents decide or maxTicks elapse,
// returning the number of ticks executed.
func (e *AsyncEngine) Run(maxTicks int) int {
	start := e.tick
	for e.tick-start < maxTicks {
		done := true
		for _, u := range e.active {
			d, ok := e.x.agents[u].(Decider)
			if !ok || !d.Decided() {
				done = false
				break
			}
		}
		if done {
			break
		}
		e.Tick()
	}
	return e.tick - start
}

// TickCount returns the number of executed ticks.
func (e *AsyncEngine) TickCount() int { return e.tick }

// Counters returns the engine's communication counters.
func (e *AsyncEngine) Counters() *metrics.Counters { return e.x.counters }

// DroppedActions returns how many actions violated the topology.
func (e *AsyncEngine) DroppedActions() int { return e.x.Dropped() }
