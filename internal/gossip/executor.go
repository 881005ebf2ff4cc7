package gossip

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/trace"
)

// executor is the single implementation of GOSSIP delivery semantics —
// topology validation, push/pull delivery, self-operation short-circuiting,
// fault silence, trace emission, and communication accounting — shared by
// the synchronous Engine and the sequential AsyncEngine. The schedulers
// decide when each agent acts; the executor decides what happens to the
// chosen action. Keeping these semantics in exactly one place is what makes
// the two execution models comparable experiment-for-experiment.
//
// Accounting goes through a plain (non-atomic) Delta tally: delivery always
// runs on one goroutine, so per-message atomics would be pure overhead. The
// tally is flushed into the shared Counters once per round/tick (endRound),
// keeping Counters reads exact at round granularity.
type executor struct {
	topo     topo.Topology
	dyn      topo.Dynamic // non-nil iff topo is a per-round graph process
	agents   []Agent
	initial  []bool        // round-0 fault mask (governs agent existence)
	faults   FaultSchedule // quiescence over time; never nil
	counters *metrics.Counters
	tally    metrics.Delta
	sink     trace.Sink
	dropped  int
	loss     Loss // per-crossing loss decision; the zero value loses nothing

	noFaults StaticFaults // scratch all-false mask, reused across runs
	union    UnionFaults  // scratch for combining static + dynamic faults
}

// init validates the configuration shared by both engines and panics on size
// mismatches so misconfigured experiments fail loudly. It fully reinitializes
// x, so a pooled executor can be reused across runs; slice capacity is the
// only state that survives.
func (x *executor) init(cfg Config, agents []Agent) {
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
	var faults FaultSchedule = StaticFaults(faulty)
	if cfg.Faults != nil {
		x.union = append(x.union[:0], faults, cfg.Faults)
		faults = x.union
	}
	x.loss = NewLoss(cfg.Drop, cfg.DropRand)
	x.topo = cfg.Topology
	x.dyn, _ = cfg.Topology.(topo.Dynamic)
	x.agents = agents
	x.initial = faulty
	x.faults = faults
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

// silent reports whether node u is quiescent at time r: silenced by the
// fault schedule, or a faulty node that never had an agent.
func (x *executor) silent(r, u int) bool {
	return x.agents[u] == nil || x.faults.Silent(r, u)
}

// validate enforces the topology on one action: an action addressed to an
// out-of-range node or a non-neighbor is dropped, traced, and replaced with
// NoAction.
func (x *executor) validate(round, u int, a *Action) {
	if a.Kind == ActNone {
		return
	}
	if a.To < 0 || a.To >= len(x.agents) || !x.topo.CanSend(u, a.To) {
		x.dropped++
		x.emit(trace.Event{Round: round, Kind: trace.KindDrop, From: u, To: a.To})
		*a = NoAction()
	}
}

// exec performs one validated action on behalf of node u.
func (x *executor) exec(round, u int, a Action) {
	switch a.Kind {
	case ActPush:
		x.deliverPush(round, u, a)
	case ActPull:
		x.resolvePull(round, u, a)
	}
}

// endRound accounts one completed round/tick and flushes the delivery tally
// into the shared counters (shard 0: delivery is single-goroutine).
func (x *executor) endRound() {
	x.tally.AddRound()
	x.counters.AddDelta(0, x.tally)
	x.tally = metrics.Delta{}
}

// deliverPush delivers one push. A push to a quiescent target is lost but
// its cost is still incurred — the sender cannot know.
func (x *executor) deliverPush(round, u int, a Action) {
	if u == a.To {
		// Self-push is a local operation: delivered, not counted.
		x.agents[u].HandlePush(round, u, a.Payload)
		return
	}
	x.tally.AddPush()
	x.tally.AddMessage(PayloadBits(a.Payload))
	if x.loss.Lost(round, u, a.To, LegPush) {
		x.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To, Note: "lost"})
		return // lost on the link; cost already incurred
	}
	x.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To})
	if x.silent(round, a.To) {
		return // pushed into the void; cost already incurred
	}
	x.agents[a.To].HandlePush(round, u, a.Payload)
}

// resolvePull resolves one pull: a query message followed by an optional
// reply message, both counted when they cross a link. A quiescent target and
// an agent that refuses to answer are indistinguishable at the puller.
func (x *executor) resolvePull(round, u int, a Action) {
	if u == a.To {
		// Self-pull resolves locally, free of charge.
		reply := x.agents[u].HandlePull(round, u, a.Payload)
		x.agents[u].HandlePullReply(round, u, reply)
		return
	}
	x.tally.AddMessage(PayloadBits(a.Payload))
	if x.loss.Lost(round, u, a.To, LegQuery) {
		x.tally.AddPull(false)
		x.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To, Note: "query-lost"})
		x.agents[u].HandlePullReply(round, a.To, nil)
		return
	}
	if x.silent(round, a.To) {
		x.tally.AddPull(false)
		x.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To, Note: "no-reply"})
		x.agents[u].HandlePullReply(round, a.To, nil)
		return
	}
	reply := x.agents[a.To].HandlePull(round, u, a.Payload)
	if reply == nil {
		x.tally.AddPull(false)
		x.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To, Note: "refused"})
		x.agents[u].HandlePullReply(round, a.To, nil)
		return
	}
	x.tally.AddMessage(PayloadBits(reply))
	if x.loss.Lost(round, a.To, u, LegReply) {
		x.tally.AddPull(false)
		x.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To, Note: "reply-lost"})
		x.agents[u].HandlePullReply(round, a.To, nil)
		return
	}
	x.tally.AddPull(true)
	x.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To})
	x.agents[u].HandlePullReply(round, a.To, reply)
}

func (x *executor) emit(ev trace.Event) {
	if x.sink != nil {
		x.sink.Emit(ev)
	}
}

// PayloadBits returns the accounted wire size of a payload: SizeBits for a
// real payload, 0 for nil. Every delivery layer (the executor here, the
// message-passing runtime) must account message sizes through this one
// helper so communication metrics agree across schedulers.
func PayloadBits(p Payload) int {
	if p == nil {
		return 0
	}
	return p.SizeBits()
}
