package gossip

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Executor is the single implementation of GOSSIP delivery semantics —
// topology validation, push/pull delivery, self-operation short-circuiting,
// keyed message loss, fault silence, trace emission, and communication
// accounting. The schedulers decide when each agent acts; the executor decides
// what happens to the chosen action. Its clients are the synchronous Engine,
// the sequential AsyncEngine, and the message-passing runtime
// (internal/runtime); keeping the semantics in exactly one place is what makes
// them comparable experiment-for-experiment.
//
// An operation is decided before it crosses a link (Decide, plus Answer for a
// pull's reply leg), carried to its handlers, and settled (SettlePush,
// SettlePull); the sender pays for a crossing when it is decided, and a pull
// is counted, answered or not, when it is settled. The engines carry
// operations by direct call, one after another (carry). The runtime decides a
// whole wave, carries it over a transport, and settles it at its round barrier
// in the same sender order, turning a crossing its transport lost into
// FateLost. Both call the same decisions and the same settlement, so neither
// restates the other.
//
// Accounting goes through a plain (non-atomic) Delta tally: decisions and
// settlement run on one goroutine (the runtime's coordinator), so per-message
// atomics would be pure overhead. EndRound flushes the tally into the shared
// Counters once per round/tick, keeping Counters reads exact at round
// granularity. The zero value is ready for Init.
type Executor struct {
	topo     topo.Topology
	dyn      topo.Dynamic // non-nil iff topo is a per-round graph process
	agents   []Agent
	initial  []bool        // round-0 fault mask: silent throughout, maybe agentless
	faults   FaultSchedule // quiescence over time on top of initial; nil if none
	counters *metrics.Counters
	tally    metrics.Delta
	sink     trace.Sink
	dropped  int
	loss     Loss // per-crossing loss decision; the zero value loses nothing

	noFaults []bool // scratch all-false mask, reused across runs
}

// Fate is what becomes of one link crossing. Decide gives a push's or a pull
// query's before dispatch, Answer a pull reply's; a carrier whose transport
// loses a dispatched message turns its FateSent into FateLost before settling.
// The zero Fate is FateSilent, which is not carried.
type Fate uint8

const (
	FateSilent Fate = iota // nobody answers: the target is quiescent, or refused a pull
	FateLost               // lost on the link; the sender has paid
	FateSelf               // a self-operation: local, free, never lost
	FateSent               // crosses the link to a live receiver
)

// Carried reports whether an operation with this fate reaches a handler, so
// its carrier must take it there: locally for a self-operation, across the
// link for a sent one.
func (f Fate) Carried() bool { return f == FateSelf || f == FateSent }

// Outcome is what became of one operation: the fate of its first crossing (a
// push, or a pull's query), from Decide, and for a pull whose query reached
// its target the reply leg's, from Answer.
type Outcome struct {
	Fate Fate
	// Reply is meaningful only when Fate is FateSent; otherwise no reply leg
	// exists and Reply stays FateSilent, its zero value. It is FateSent only
	// for a pull that was answered.
	Reply Fate
}

// Init validates the configuration and panics on size mismatches so
// misconfigured experiments fail loudly. It fully reinitializes x, so a pooled
// executor can be reused across runs; slice capacity is the only state that
// survives.
func (x *Executor) Init(cfg Config, agents []Agent) {
	n := cfg.Topology.N()
	if len(agents) != n {
		panic(fmt.Sprintf("gossip: %d agents for %d nodes", len(agents), n))
	}
	faulty := cfg.Faulty
	if faulty == nil {
		x.noFaults = resizeBools(x.noFaults, n)
		faulty = x.noFaults
	}
	if len(faulty) != n {
		panic(fmt.Sprintf("gossip: faulty mask has %d entries for %d nodes", len(faulty), n))
	}
	for i, a := range agents {
		if a == nil && !faulty[i] {
			panic(fmt.Sprintf("gossip: active node %d has no agent", i))
		}
	}
	counters := cfg.Counters
	if counters == nil {
		counters = &metrics.Counters{}
	}
	x.loss = NewLoss(cfg.Drop, cfg.DropRand)
	x.topo = cfg.Topology
	x.dyn, _ = cfg.Topology.(topo.Dynamic)
	x.agents = agents
	x.initial = faulty
	x.faults = cfg.Faults
	x.counters = counters
	x.tally = metrics.Delta{}
	x.sink = cfg.Trace
	x.dropped = 0
}

// resizeBools returns a false-filled slice of length n, reusing capacity.
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// Advance moves a dynamic topology to round r's edge set at the round
// boundary: round 0 runs on the edge set Start materialized, and every later
// round advances the process exactly once, here, before any agent reads it.
// Between boundaries the edge set is immutable, so agents may sample peers
// from it concurrently.
func (x *Executor) Advance(r int) {
	if x.dyn != nil && r > 0 {
		x.dyn.Advance(r)
	}
}

// Silent reports whether node u is quiescent at time r: faulty from round 0
// (every node without an agent is), or silenced by the fault schedule. A
// silent node does not act and is never delivered anything.
func (x *Executor) Silent(r, u int) bool {
	return x.initial[u] || x.faults != nil && x.faults.Silent(r, u)
}

// AllDecided reports whether every active Decider agent has decided at time
// r; currently-silent nodes do not block termination.
func (x *Executor) AllDecided(r int) bool {
	for i, a := range x.agents {
		if x.Silent(r, i) {
			continue
		}
		d, ok := a.(Decider)
		if !ok || !d.Decided() {
			return false
		}
	}
	return true
}

// Plan validates a round's actions in node order and returns the IDs of the
// nodes pushing and pulling, ascending — the round's delivery order. pushes
// and pulls are reused as scratch.
func (x *Executor) Plan(round int, actions []Action, pushes, pulls []int32) ([]int32, []int32) {
	pushes, pulls = pushes[:0], pulls[:0]
	for u := range actions {
		x.validate(round, u, &actions[u])
		switch actions[u].Kind {
		case ActPush:
			pushes = append(pushes, int32(u))
		case ActPull:
			pulls = append(pulls, int32(u))
		}
	}
	return pushes, pulls
}

// validate enforces the topology on one action: an action addressed to an
// out-of-range node or a non-neighbor is dropped, traced, and replaced with
// NoAction.
func (x *Executor) validate(round, u int, a *Action) {
	if a.Kind == ActNone {
		return
	}
	if a.To < 0 || a.To >= len(x.agents) || !x.topo.CanSend(u, a.To) {
		x.dropped++
		x.emit(trace.Event{Round: round, Kind: trace.KindDrop, From: u, To: a.To})
		*a = NoAction()
	}
}

// Dropped returns how many actions validation discarded for addressing a
// non-neighbor or an out-of-range node.
func (x *Executor) Dropped() int { return x.dropped }

// EndRound accounts one completed round/tick and flushes the delivery tally
// into the shared counters (shard 0: delivery is single-goroutine).
func (x *Executor) EndRound() {
	x.tally.AddRound()
	x.counters.AddDelta(0, x.tally)
	x.tally = metrics.Delta{}
}

// Decide decides the fate of u's validated push or pull query a before it
// crosses the link, and charges the sender for any crossing: a self-operation
// is local and free; otherwise the keyed loss decision comes first — a lost
// message never learns whether its target was alive — then the target's
// silence. Neither depends on when it is asked, so a carrier may decide a
// whole wave before carrying any of it.
func (x *Executor) Decide(round, u int, a *Action) Fate {
	if u == a.To {
		return FateSelf
	}
	x.tally.AddMessage(PayloadBits(a.Payload))
	leg := LegPush
	if a.Kind == ActPull {
		leg = LegQuery
	} else {
		x.tally.AddPush()
	}
	switch {
	case x.loss.Lost(round, u, a.To, leg):
		return FateLost
	case x.Silent(round, a.To):
		return FateSilent
	}
	return FateSent
}

// Answer decides the reply leg of u's pull a, whose query reached its target,
// given the target's HandlePull result, and charges the target for a reply it
// served: FateSilent when it refused (nil), FateLost when the reply is lost on
// the link, FateSent otherwise. It records the leg in o and returns what
// reaches the puller: the reply, or nil.
func (x *Executor) Answer(round, u int, a *Action, reply Payload, o *Outcome) Payload {
	if reply == nil {
		o.Reply = FateSilent
		return nil
	}
	x.tally.AddMessage(PayloadBits(reply))
	if x.loss.Lost(round, a.To, u, LegReply) {
		o.Reply = FateLost
		return nil
	}
	o.Reply = FateSent
	return reply
}

// SettlePush records what became of u's push a, which fate f says, as its
// trace event; a self-push leaves none. It stays small enough to inline, so a
// run without a trace sink pays nothing for it.
func (x *Executor) SettlePush(round, u int, a *Action, f Fate) {
	if x.sink != nil && f != FateSelf {
		x.tracePush(round, u, a, f)
	}
}

func (x *Executor) tracePush(round, u int, a *Action, f Fate) {
	note := ""
	if f == FateLost {
		note = "lost"
	}
	x.sink.Emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To, Note: note})
}

// SettlePull records what became of u's pull a: the pull, counted as answered
// or not, and its trace event; a self-pull leaves neither.
func (x *Executor) SettlePull(round, u int, a *Action, o Outcome) {
	if o.Fate != FateSelf {
		x.tally.AddPull(o.Reply == FateSent)
		if x.sink != nil {
			x.tracePull(round, u, a, o)
		}
	}
}

// tracePull emits a pull's event, whose note says why a failed pull failed.
func (x *Executor) tracePull(round, u int, a *Action, o Outcome) {
	note := ""
	switch o.Fate {
	case FateLost:
		note = "query-lost"
	case FateSilent:
		note = "no-reply"
	default:
		switch o.Reply {
		case FateSilent:
			note = "refused"
		case FateLost:
			note = "reply-lost"
		}
	}
	x.sink.Emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To, Note: note})
}

// carry is the engines' carrier: it decides, carries by direct call, and
// settles the operations in ids one after another, in ids order;
// actions[u] is node u's validated action. A push reaches its target's
// HandlePush; a pull runs the target's HandlePull and hands the puller the
// reply — or nil, since a quiescent target and an agent that refuses to
// answer are indistinguishable at the puller.
func (x *Executor) carry(round int, actions []Action, ids []int32) {
	for _, u32 := range ids {
		u, a := int(u32), &actions[u32]
		o := Outcome{Fate: x.Decide(round, u, a)}
		if a.Kind == ActPush {
			x.SettlePush(round, u, a, o.Fate)
			if o.Fate.Carried() {
				x.agents[a.To].HandlePush(round, u, a.Payload)
			}
			continue
		}
		var reply Payload
		switch o.Fate {
		case FateSelf:
			reply = x.agents[u].HandlePull(round, u, a.Payload)
		case FateSent:
			reply = x.Answer(round, u, a, x.agents[a.To].HandlePull(round, u, a.Payload), &o)
		}
		x.SettlePull(round, u, a, o)
		x.agents[u].HandlePullReply(round, a.To, reply)
	}
}

func (x *Executor) emit(ev trace.Event) {
	if x.sink != nil {
		x.sink.Emit(ev)
	}
}

// PayloadBits returns the accounted wire size of a payload: SizeBits for a
// real payload, 0 for nil. Every message is accounted through this one helper
// — by Decide and Answer — so communication metrics agree across schedulers.
func PayloadBits(p Payload) int {
	if p == nil {
		return 0
	}
	return p.SizeBits()
}
