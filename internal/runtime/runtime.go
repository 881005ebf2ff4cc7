// Package runtime executes the protocol as a real message-passing system:
// every agent becomes a Node with a typed, bounded mailbox, a few host
// goroutines each serve a contiguous range of nodes from one queue, and all
// communication crosses a pluggable Conduit transport.
// It is the simulator-to-runtime ladder: in-process channels
// (ChannelConduit), fault-injecting transports layered on top
// (FaultConduit), and real OS sockets (the netconduit subpackage: framed
// deliveries over TCP or Unix-domain loopback with synchronous acks) — with
// the protocol logic (core.Agent) untouched at every rung. A conduit that
// holds transport resources implements io.Closer and is closed by Shutdown.
//
// # Scheduling and transcript equivalence
//
// The coordinator is a deterministic round-barrier scheduler that mirrors
// gossip.Engine.Step operation for operation: advance the dynamic topology
// at the round boundary, fan RoundStart out to every active node and collect
// their actions (the hosts run their ranges' Acts concurrently, like the
// engine's parallel Act phase), validate against the topology in node order,
// then deliver pushes and resolve pulls in ascending node-ID order. Message loss
// (Config.Drop) is the simulator's keyed decision (gossip.Loss) under the same
// key, so the runtime loses exactly the crossings the simulator loses. Agents
// never emit trace events, so over any transport that loses nothing of its
// own the runtime's transcript is byte-identical to the simulator's for the
// same seed — every golden fixture and experiment finding carries over. See
// the equivalence suite in this package's tests.
//
// # Hosted node ranges
//
// New starts W = min(GOMAXPROCS, active nodes) host goroutines, not one per
// node: host w owns node IDs [w·n/W, (w+1)·n/W) and the one queue every
// message for them enters (see host). A round parks and wakes W goroutines a
// few times, not n, and per-node FIFO order — all the transcript needs —
// holds because a node has exactly one host. W follows GOMAXPROCS as New finds
// it; there is no other width setting.
//
// # Pipelined delivery
//
// The protocol's correctness barrier is per round, so the coordinator does
// not need a synchronous transport round trip per message — only per-
// destination delivery order and coordinator-ordered observables. Every phase
// of a round is dispatched as one pipelined wave through the conduit's Batch
// (a conduit without the batch seam gets an adapter whose Add is Deliver):
// loss is decided per crossing before dispatch — a keyed decision does not
// care when it is asked — the whole delivery set is handed to the transport
// without waiting per message, and results, trace events, and accounting are
// settled at the barrier in the simulator's order. The transcript stays
// byte-identical while the transport coalesces frames and overlaps
// acknowledgements. A pull phase is two waves: queries, then — once every
// target's HandlePull result is in — the replies that survive their own loss
// decision.
//
// # Round barrier
//
// Every coordinator wait — the Act fan-out of a round, or any one of its
// delivery waves — is one barrier, and reaching it takes no
// lock that two hosts share. A handler leaves what it produced in its node's
// slots (its entry of the action table, a FIFO of HandlePull results, a
// scratch of delivery latencies) and the host adds each batch it has handled
// to one atomic count of handled messages; the coordinator publishes the count
// it is owed and parks on a one-slot wake channel that only the add crossing
// that count signals (see barrier for why no wake-up is lost). Ownership: a
// node's slots, and its agent, are written only by its host, only while
// handling a message; the coordinator reads or resets them only between a
// barrier that counted every message it sent that node and its next send
// there. Shutdown is a flag on the same barrier: a wait that sees it fails
// without reading any slot — hosts may still be running — and Run returns
// ErrShutdown.
//
// On top of that parity the runtime measures what the simulator cannot:
// wall-clock convergence and per-message delivery latency, reported as a
// metrics.Live with streaming quantiles (stats.QuantileSketch).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"io"
	stdruntime "runtime"
	"sync"
	"time"

	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// DefaultMailbox is Config.Mailbox's default. A host serving k nodes accepts
// Mailbox × k unhandled messages, whichever of its nodes they are for; a
// pipelined wave addresses about one per node, so four absorbs any normal
// wave, and past the bound Send's backpressure makes the dispatcher wait.
const DefaultMailbox = 4

// slotCap is a node's share of the reply-FIFO and latency-scratch slabs, above
// the deliveries one node normally sees in a round, so steady rounds allocate
// nothing (a node that outgrows it appends into a private array).
const slotCap = 8

// Config configures a Runtime. It mirrors gossip.Config — same topology,
// fault, accounting, and loss semantics — plus the transport knobs.
type Config struct {
	// Topology is the communication graph. A topo.Dynamic topology must be
	// Started by the caller; the runtime advances it once per round.
	Topology topo.Topology
	// Faulty marks permanently faulty nodes; nil means fault-free. Nodes in
	// this mask may have no agent and are never sent a message.
	Faulty []bool
	// Faults optionally adds a dynamic quiescence schedule on top of Faulty.
	Faults gossip.FaultSchedule
	// Counters receives communication accounting; nil allocates a private one.
	Counters *metrics.Counters
	// Trace receives events; nil disables tracing. Only the coordinator
	// emits, so the sink needs no synchronization.
	Trace trace.Sink
	// Drop and DropRand are the probabilistic message-loss model, with
	// exactly gossip.Config's semantics: a keyed decision per link crossing,
	// so for the same seed the runtime loses the same messages the simulator
	// does.
	Drop     float64
	DropRand *rng.Source
	// Conduit is the transport; nil means ChannelConduit.
	Conduit Conduit
	// Mailbox is the mailbox capacity per node; 0 means DefaultMailbox.
	Mailbox int
}

// Runtime drives a set of Nodes through synchronous rounds. It is the
// deterministic round-barrier scheduler; all delivery decisions (loss,
// silence, validation) happen here on the coordinator goroutine, while the
// protocol handlers run on the host goroutines.
type Runtime struct {
	topo     topo.Topology
	dyn      topo.Dynamic // non-nil iff topo is a per-round graph process
	agents   []gossip.Agent
	faults   gossip.FaultSchedule
	counters *metrics.Counters
	sink     trace.Sink
	loss     gossip.Loss
	conduit  Conduit

	nodes []Node // one slab; a faulty slot has a nil agent and no host
	bar   *barrier
	wg    sync.WaitGroup
	halt  sync.Once

	round   int
	dropped int
	tally   metrics.Delta
	actions []gossip.Action
	pushes  []int32
	pulls   []int32

	// Delivery-wave scratch, reused every round. rhead[id] is how far the
	// coordinator has read into node id's reply FIFO.
	batch  Batch
	pfates []pushFate
	precs  []pullRec
	oks    []bool
	rhead  []int

	lat       stats.QuantileSketch
	delivered int64
	kinds     [msgKinds]int64
}

// pushFate is one push's — or one pull query's — disposition before
// dispatch: the loss decision and the silence mask are consulted before
// anything is handed to the transport.
type pushFate uint8

const (
	pushSelf   pushFate = iota // local, free, rides the batch for FIFO order
	pushLost                   // lost on the link (Config.Drop) before dispatch
	pushSilent                 // target quiescent: cost paid, nothing sent
	pushSent                   // dispatched; transport decides the rest
)

// pullRec is one pull's bookkeeping across the query and reply waves of a
// pull phase. The final disposition (note, accounting) is settled at the
// barrier so trace bytes come out in exactly the simulator's order.
type pullRec struct {
	fate      pushFate // the query's
	note      string   // trace note of a failed pull; "" while it can still succeed
	served    bool     // the target answered: the reply's cost is paid
	replyBits int32    // accounted size of the served reply
	w2        int32    // the reply's index in the wave-2 results, -1 if not dispatched
}

// New validates cfg, builds the node set, and starts the host goroutines.
// agents[i] is the agent at node i; entries for faulty nodes may be nil. It
// panics on size mismatches, mirroring gossip.NewEngine. The caller must
// eventually call Shutdown to stop the hosts.
func New(cfg Config, agents []gossip.Agent) *Runtime {
	n := cfg.Topology.N()
	if len(agents) != n {
		panic(fmt.Sprintf("runtime: %d agents for %d nodes", len(agents), n))
	}
	faulty := cfg.Faulty
	if faulty == nil {
		faulty = make([]bool, n)
	}
	if len(faulty) != n {
		panic(fmt.Sprintf("runtime: faulty mask has %d entries for %d nodes", len(faulty), n))
	}
	active := 0
	for i, a := range agents {
		if a != nil {
			active++
		} else if !faulty[i] {
			panic(fmt.Sprintf("runtime: active node %d has no agent", i))
		}
	}
	counters := cfg.Counters
	if counters == nil {
		counters = &metrics.Counters{}
	}
	var faults gossip.FaultSchedule = gossip.StaticFaults(faulty)
	if cfg.Faults != nil {
		faults = gossip.UnionFaults{faults, cfg.Faults}
	}
	conduit := cfg.Conduit
	if conduit == nil {
		conduit = ChannelConduit{}
	}
	mailbox := cfg.Mailbox
	if mailbox <= 0 {
		mailbox = DefaultMailbox
	}

	rt := &Runtime{
		topo:     cfg.Topology,
		agents:   agents,
		faults:   faults,
		counters: counters,
		sink:     cfg.Trace,
		loss:     gossip.NewLoss(cfg.Drop, cfg.DropRand),
		conduit:  conduit,
		batch:    newBatch(conduit),
		nodes:    make([]Node, n),
		bar:      newBarrier(),
		actions:  make([]gossip.Action, n),
		rhead:    make([]int, n),
	}
	rt.dyn, _ = cfg.Topology.(topo.Dynamic)
	replies := make([]gossip.Payload, n*slotCap)
	lats := make([]time.Duration, n*slotCap)
	width := min(stdruntime.GOMAXPROCS(0), active)
	for w := 0; w < width; w++ {
		lo, hi := w*n/width, (w+1)*n/width
		h := newHost(rt.bar, mailbox*(hi-lo))
		for i := lo; i < hi; i++ {
			if agents[i] == nil {
				continue
			}
			s := i * slotCap
			rt.nodes[i] = Node{
				id:      i,
				agent:   agents[i],
				host:    h,
				action:  &rt.actions[i],
				replies: replies[s : s : s+slotCap],
				lats:    lats[s : s : s+slotCap],
			}
		}
		rt.wg.Add(1)
		go h.run(&rt.wg)
	}
	return rt
}

// Node returns the node at id (nil for faulty slots) — the handle conduit
// implementations and transport tests address messages to.
func (rt *Runtime) Node(id int) *Node {
	if rt.nodes[id].agent == nil {
		return nil
	}
	return &rt.nodes[id]
}

// Round returns the number of rounds executed so far.
func (rt *Runtime) Round() int { return rt.round }

// DroppedActions returns how many actions were discarded because they
// addressed a non-neighbor or an out-of-range node.
func (rt *Runtime) DroppedActions() int { return rt.dropped }

// Shutdown stops every host goroutine and waits for them to exit, then
// closes the conduit if it holds transport resources (implements io.Closer)
// — the socket conduit's listener and connections die with the runtime. It
// is idempotent and safe to call from any goroutine — a Run in flight
// returns ErrShutdown; once both have returned, the agents' final state is
// safe to read.
func (rt *Runtime) Shutdown() {
	rt.halt.Do(rt.bar.halt)
	rt.wg.Wait()
	if c, ok := rt.conduit.(io.Closer); ok {
		c.Close() //nolint:errcheck // best-effort teardown; Close is idempotent
	}
}

// ErrShutdown is Run's error when Shutdown stopped the runtime under it.
var ErrShutdown = errors.New("runtime: shut down during Run")

// Run executes rounds until every active Decider agent has decided, maxRounds
// have been executed, or ctx is cancelled (checked at round boundaries). It
// returns the number of complete rounds run, with ctx's error if cancellation
// cut the run short, or ErrShutdown if a concurrent Shutdown did (mid-round:
// Live and the trace then include part of a round that was never counted).
// The caller still owns Shutdown.
func (rt *Runtime) Run(ctx context.Context, maxRounds int) (int, error) {
	start := rt.round
	done := ctx.Done()
	for rt.round-start < maxRounds {
		select {
		case <-done:
			return rt.round - start, ctx.Err()
		default:
		}
		if rt.allDecided() {
			break
		}
		if !rt.step() {
			return rt.round - start, ErrShutdown
		}
	}
	return rt.round - start, nil
}

// Live reports the runtime-layer observables of the execution so far.
func (rt *Runtime) Live(wall time.Duration) metrics.Live {
	return metrics.Live{
		WallClock:  wall,
		Rounds:     rt.round,
		Delivered:  rt.delivered,
		Pushes:     rt.kinds[MsgPush],
		Votes:      rt.kinds[MsgVote],
		Queries:    rt.kinds[MsgQuery],
		Replies:    rt.kinds[MsgReply],
		LatencyP50: time.Duration(rt.lat.Quantile(0.50)),
		LatencyP99: time.Duration(rt.lat.Quantile(0.99)),
		LatencyMax: time.Duration(rt.lat.Max()),
	}
}

// silent reports whether node u is quiescent at round r.
func (rt *Runtime) silent(r, u int) bool {
	return rt.agents[u] == nil || rt.faults.Silent(r, u)
}

func (rt *Runtime) emit(ev trace.Event) {
	if rt.sink != nil {
		rt.sink.Emit(ev)
	}
}

// allDecided mirrors gossip.Engine: currently-silent nodes do not block
// termination. Reading agent state here is race-free — every agent mutation
// happens on its host goroutine before the completion the coordinator's
// last barrier counted.
func (rt *Runtime) allDecided() bool {
	for i, a := range rt.agents {
		if rt.silent(rt.round, i) || a == nil {
			continue
		}
		d, ok := a.(gossip.Decider)
		if !ok || !d.Decided() {
			return false
		}
	}
	return true
}

// step executes one synchronous round with exactly the engine's structure:
// dynamics advance, parallel Act, validation in node order, pushes then
// pulls in ascending node-ID order, round accounting. It reports false, the
// round uncounted, when Shutdown cut it short.
func (rt *Runtime) step() bool {
	round := rt.round
	if rt.dyn != nil && round > 0 {
		rt.dyn.Advance(round)
	}

	// Act fan-out: the hosts compute their active nodes' actions concurrently;
	// silent nodes contribute NoAction without being sent anything, so their
	// RNG streams stay untouched (exactly the engine's act()).
	pending := 0
	for i := range rt.agents {
		if rt.silent(round, i) {
			rt.actions[i] = gossip.NoAction()
			continue
		}
		if rt.nodes[i].Send(Message{Kind: MsgRound, Round: round}) {
			pending++
		}
	}
	if !rt.bar.await(pending) {
		return false
	}

	rt.pushes = rt.pushes[:0]
	rt.pulls = rt.pulls[:0]
	for u := range rt.actions {
		rt.validate(round, u, &rt.actions[u])
		switch rt.actions[u].Kind {
		case gossip.ActPush:
			rt.pushes = append(rt.pushes, int32(u))
		case gossip.ActPull:
			rt.pulls = append(rt.pulls, int32(u))
		}
	}

	rt.pushWave(round)
	rt.pullWaves(round)
	if rt.bar.stopped.Load() {
		return false
	}

	// Every message of the round has been counted: read the latencies out.
	for i := range rt.nodes {
		n := &rt.nodes[i]
		for _, d := range n.lats {
			rt.lat.Add(int64(d))
		}
		n.lats = n.lats[:0]
	}
	rt.tally.AddRound()
	rt.counters.AddDelta(0, rt.tally)
	rt.tally = metrics.Delta{}
	rt.round++
	return true
}

// validate enforces the topology on one action, tracing drops like the
// engine does.
func (rt *Runtime) validate(round, u int, a *gossip.Action) {
	if a.Kind == gossip.ActNone {
		return
	}
	if a.To < 0 || a.To >= len(rt.agents) || !rt.topo.CanSend(u, a.To) {
		rt.dropped++
		rt.emit(trace.Event{Round: round, Kind: trace.KindDrop, From: u, To: a.To})
		*a = gossip.NoAction()
	}
}

// popReply consumes node id's next HandlePull result, rewinding the FIFO once
// it is read out. A node appends in mailbox order and a batch preserves
// per-destination Add order, so popping a target in puller order matches
// each reply to its query. An out-of-range panic here means a delivered query
// was never handled — a broken conduit or node, worth failing loudly over.
func (rt *Runtime) popReply(id int) gossip.Payload {
	n := &rt.nodes[id]
	reply := n.replies[rt.rhead[id]]
	if rt.rhead[id]++; rt.rhead[id] == len(n.replies) {
		n.replies, rt.rhead[id] = n.replies[:0], 0
	}
	return reply
}

// flushWave forces the staged wave out, keeps its results in rt.oks, and
// waits until every delivery that reached a mailbox, and the direct sends
// made beside the wave, have been handled — or reports false on Shutdown.
func (rt *Runtime) flushWave(direct int) bool {
	rt.oks = append(rt.oks[:0], rt.batch.Flush()...)
	for _, ok := range rt.oks {
		if ok {
			direct++
		}
	}
	return rt.bar.await(direct)
}

// pushWave delivers the round's push set as one pipelined wave with the
// executor's semantics: a self-push is local and free; a non-self push always
// incurs its cost, may be lost on the link (loss decision or transport), and
// lands in the void when the target is quiescent. Fates are decided in sender
// order, every surviving push is dispatched without a per-message wait, and
// accounting plus trace events are settled at the barrier in sender order —
// the simulator's transcript. Self-pushes ride the batch too (untimed,
// untallied): a direct mailbox send could overtake the wave's in-flight
// deliveries to the same node and reorder HandlePush.
func (rt *Runtime) pushWave(round int) {
	if len(rt.pushes) == 0 {
		return
	}
	rt.pfates = rt.pfates[:0]
	now := time.Now()
	for _, u32 := range rt.pushes {
		u := int(u32)
		a := rt.actions[u]
		switch {
		case u == a.To:
			rt.batch.Add(&rt.nodes[u], Message{Kind: classifyPush(a.Payload), Round: round, From: u, Payload: a.Payload})
			rt.pfates = append(rt.pfates, pushSelf)
		case rt.loss.Lost(round, u, a.To, gossip.LegPush):
			rt.pfates = append(rt.pfates, pushLost)
		case rt.silent(round, a.To):
			rt.pfates = append(rt.pfates, pushSilent)
		default:
			rt.batch.Add(&rt.nodes[a.To], Message{Kind: classifyPush(a.Payload), Round: round, From: u, Payload: a.Payload, SentAt: now})
			rt.pfates = append(rt.pfates, pushSent)
		}
	}
	if !rt.flushWave(0) {
		return
	}

	// Barrier settlement, in sender order — the simulator's order.
	j := 0
	for i, u32 := range rt.pushes {
		u := int(u32)
		a := rt.actions[u]
		fate := rt.pfates[i]
		if fate == pushSelf {
			j++
			continue
		}
		rt.tally.AddPush()
		rt.tally.AddMessage(gossip.PayloadBits(a.Payload))
		switch fate {
		case pushLost:
			rt.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To, Note: "lost"})
		case pushSilent:
			rt.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To})
		case pushSent:
			ok := rt.oks[j]
			j++
			if !ok {
				rt.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To, Note: "lost"})
				continue
			}
			rt.delivered++
			rt.kinds[classifyPush(a.Payload)]++
			rt.emit(trace.Event{Round: round, Kind: trace.KindPush, From: u, To: a.To})
		}
	}
}

// pullWaves resolves the round's pull set — query out, optional reply back —
// in two pipelined waves with the executor's semantics and trace notes. Wave 1
// dispatches every query that survives its loss decision — self-pulls ride
// the batch for mailbox-order safety, quiescent targets dispatch nothing — and
// collects the targets' HandlePull results at the barrier. The resolution
// pass then walks pullers in ascending order, matching replies per-target
// FIFO, and assembles wave 2: a served reply that survives its own loss
// decision crosses the conduit (timed), while the nil reply a failed pull
// produces — the same observation a quiescent target gives — goes straight to
// the puller's mailbox: it is not a link crossing, so the transport gets no
// chance to delay or drop it. Wave 2 has at most one message per puller, so no
// ordering hazard remains. Accounting and trace events are settled last, in
// puller order; a puller whose reply the transport lost gets its nil there.
func (rt *Runtime) pullWaves(round int) {
	if len(rt.pulls) == 0 {
		return
	}
	rt.precs = rt.precs[:0]
	now := time.Now()
	for _, u32 := range rt.pulls {
		u := int(u32)
		a := rt.actions[u]
		switch {
		case u == a.To:
			rt.batch.Add(&rt.nodes[u], Message{Kind: MsgQuery, Round: round, From: u, Payload: a.Payload})
			rt.precs = append(rt.precs, pullRec{fate: pushSelf})
		case rt.loss.Lost(round, u, a.To, gossip.LegQuery):
			rt.precs = append(rt.precs, pullRec{fate: pushLost, note: "query-lost"})
		case rt.silent(round, a.To):
			rt.precs = append(rt.precs, pullRec{fate: pushSilent, note: "no-reply"})
		default:
			rt.batch.Add(&rt.nodes[a.To], Message{Kind: MsgQuery, Round: round, From: u, Payload: a.Payload, SentAt: now})
			rt.precs = append(rt.precs, pullRec{fate: pushSent})
		}
	}
	if !rt.flushWave(0) {
		return
	}

	// Resolution pass, in puller order: match each delivered query to its
	// target's queued HandlePull result and dispatch the reply wave.
	now = time.Now()
	w2 := int32(0)
	notifies := 0
	j := 0
	for i := range rt.precs {
		u := int(rt.pulls[i])
		a := rt.actions[u]
		rec := &rt.precs[i]
		rec.w2 = -1
		var reply gossip.Payload
		switch rec.fate {
		case pushSelf:
			j++
			continue
		case pushSent:
			reply = rt.answer(round, u, a.To, rt.oks[j], rec)
			j++
		}
		if reply == nil {
			// A failed pull: the puller observes silence.
			if rt.notify(round, u, a.To) {
				notifies++
			}
			continue
		}
		rec.w2 = w2
		w2++
		rt.batch.Add(&rt.nodes[u], Message{Kind: MsgReply, Round: round, From: a.To, Payload: reply, SentAt: now})
	}
	if !rt.flushWave(notifies) {
		return
	}

	// Barrier settlement, in puller order — the simulator's order.
	notifies = 0
	for i := range rt.precs {
		u := int(rt.pulls[i])
		a := rt.actions[u]
		rec := &rt.precs[i]
		if rec.fate == pushSelf {
			continue // local and free: no cost, no trace
		}
		rt.tally.AddMessage(gossip.PayloadBits(a.Payload))
		if rec.served {
			rt.tally.AddMessage(int(rec.replyBits))
		}
		if rec.w2 >= 0 {
			if rt.oks[rec.w2] {
				rt.delivered++
				rt.kinds[MsgReply]++
				rt.tally.AddPull(true)
				rt.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To})
				continue
			}
			// The transport lost the reply after the target served it.
			rec.note = "reply-lost"
			if rt.notify(round, u, a.To) {
				notifies++
			}
		}
		rt.tally.AddPull(false)
		rt.emit(trace.Event{Round: round, Kind: trace.KindPull, From: u, To: a.To, Note: rec.note})
	}
	rt.bar.await(notifies)
}

// answer settles what came of u's dispatched query: the reply to carry back
// in wave 2, or nil with rec.note saying why there is none — the transport
// lost the query, the target refused, or the served reply is lost on the link.
func (rt *Runtime) answer(round, u, to int, delivered bool, rec *pullRec) gossip.Payload {
	if !delivered {
		rec.note = "query-lost"
		return nil
	}
	rt.delivered++
	rt.kinds[MsgQuery]++
	reply := rt.popReply(to)
	if reply == nil {
		rec.note = "refused"
		return nil
	}
	rec.served = true
	rec.replyBits = int32(gossip.PayloadBits(reply))
	if rt.loss.Lost(round, to, u, gossip.LegReply) {
		rec.note = "reply-lost"
		return nil
	}
	return reply
}

// notify hands puller u the nil reply of a failed pull from target to,
// directly — see pullWaves — and reports whether a handling is now owed.
func (rt *Runtime) notify(round, u, to int) bool {
	return rt.nodes[u].Send(Message{Kind: MsgReply, Round: round, From: to})
}
