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
// The coordinator is a deterministic round-barrier scheduler with exactly
// gossip.Engine.Step's structure — advance the dynamic topology at the round
// boundary, fan RoundStart out to every active node and collect their actions
// (the hosts run their ranges' Acts concurrently, like the engine's parallel
// Act phase), validate in node order, then deliver pushes and resolve pulls in
// ascending node-ID order — and it restates none of the engine's semantics.
// Validation, silence, keyed loss (Config.Drop), accounting, and trace
// emission are gossip.Executor's: the coordinator asks the executor for every
// operation's fate before dispatch and hands every outcome back to the
// executor's settlement, so what the runtime adds is only the carrying. Agents
// never emit trace events, so over any transport that loses nothing of its own
// the runtime's transcript is byte-identical to the simulator's for the same
// seed — every golden fixture and experiment finding carries over. The
// equivalence suite in this package's tests is the regression net.
//
// # Hosted node ranges
//
// New starts W = min(GOMAXPROCS, active nodes) host goroutines, not one per
// node: host w owns node IDs [w·n/W, (w+1)·n/W) and the one queue every
// message for them enters (see host). A round parks and wakes W goroutines a
// few times, not n, and per-node FIFO order — all the transcript needs —
// holds because a node has exactly one host. W follows GOMAXPROCS as New finds
// it; there is no other width setting. Waves enter the queues in per-host
// chunks (see handOver): one lock per chunk, not per message, and a host reads
// the clock once per batch it swaps out, not once per message.
//
// # Pipelined delivery
//
// The protocol's correctness barrier is per round, so the coordinator does
// not need a synchronous transport round trip per message — only per-
// destination delivery order and coordinator-ordered observables. Every phase
// of a round is dispatched as one pipelined wave through the conduit's Batch
// (a conduit without the batch seam gets an adapter whose Add is Deliver):
// fates are decided per crossing before dispatch — a keyed loss decision does
// not care when it is asked — the whole delivery set is handed to the
// transport without waiting per message, and the executor settles every
// operation at the barrier in the simulator's order. The channel transport's
// batch, like the round fan-out, stages each wave per host and hands a host a
// full chunk at once — one lock per chunk — so the host starts handling while
// the coordinator is still dispatching; Flush hands over the remainders. The
// transcript stays byte-identical while the transport coalesces frames and
// overlaps acknowledgements. A pull phase is two waves: queries, then — once every
// target's HandlePull result is in — the replies that survive their own loss
// decision.
//
// # Round barrier
//
// Every coordinator wait — the Act fan-out of a round, or any one of its
// delivery waves — is one barrier, and reaching it takes no lock that two
// hosts share. A handler leaves what it produced in its node's slots (its
// entry of the action table, a FIFO of HandlePull results, a scratch of
// delivery latencies, each measured against the one clock reading its host
// takes per swapped batch) and the host adds each batch it has handled to one
// atomic count of handled messages; the coordinator publishes the count it is
// owed and parks on a one-slot wake channel that only the add crossing that
// count signals (see barrier for why no wake-up is lost). Ownership: a node's
// slots, and its agent, are written only by its host, only while handling a
// message; the coordinator reads or resets them only between a barrier that
// counted every message it sent that node and its next send there. Shutdown is a flag on the same barrier: a wait that sees it fails
// without reading any slot — hosts may still be running — and Run returns
// ErrShutdown.
//
// On top of that parity the runtime measures what the simulator cannot:
// wall-clock convergence and per-message delivery latency — from the send
// stamp to the start of the host batch that handles the message — reported as
// a metrics.Live with streaming quantiles (stats.QuantileSketch).
package runtime

import (
	"context"
	"errors"
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
// wave, and past the bound the hand-over's backpressure makes the dispatcher
// wait.
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
// deterministic round-barrier scheduler and the runtime's carrier: the
// coordinator goroutine asks its gossip.Executor for every delivery decision
// and settles every operation through it, while the protocol handlers run on
// the host goroutines.
type Runtime struct {
	x       gossip.Executor
	conduit Conduit

	nodes []Node // one slab; a faulty slot has a nil agent and no host
	bar   *barrier
	wg    sync.WaitGroup
	halt  sync.Once

	round   int
	actions []gossip.Action
	pushes  []int32
	pulls   []int32

	// Delivery-wave scratch, reused every round: the conduit's batch, the
	// round fan-out's own (control traffic never crosses the conduit), the
	// wave's outcomes, the flushed wave's results with next, the one arrived
	// reads next, and rhead[id] — how far the coordinator has read into node
	// id's reply FIFO.
	batch  Batch
	fanout handOver
	out    []gossip.Outcome
	oks    []bool
	next   int
	rhead  []int

	lat   stats.QuantileSketch
	kinds [msgKinds]int64 // messages a mailbox accepted, by kind
}

// New validates cfg, builds the node set, and starts the host goroutines.
// agents[i] is the agent at node i; entries for faulty nodes may be nil. It
// panics on size mismatches, exactly as gossip.NewEngine does. The caller
// must eventually call Shutdown to stop the hosts.
func New(cfg Config, agents []gossip.Agent) *Runtime {
	conduit := cfg.Conduit
	if conduit == nil {
		conduit = ChannelConduit{}
	}
	mailbox := cfg.Mailbox
	if mailbox <= 0 {
		mailbox = DefaultMailbox
	}
	n := len(agents)
	rt := &Runtime{
		conduit: conduit,
		batch:   newBatch(conduit),
		nodes:   make([]Node, n),
		bar:     newBarrier(),
		actions: make([]gossip.Action, n),
		rhead:   make([]int, n),
	}
	rt.x.Init(gossip.Config{
		Topology: cfg.Topology,
		Faulty:   cfg.Faulty,
		Faults:   cfg.Faults,
		Counters: cfg.Counters,
		Trace:    cfg.Trace,
		Drop:     cfg.Drop,
		DropRand: cfg.DropRand,
	}, agents)
	active := 0
	for _, a := range agents {
		if a != nil {
			active++
		}
	}
	replies := make([]gossip.Payload, n*slotCap)
	lats := make([]time.Duration, n*slotCap)
	width := min(stdruntime.GOMAXPROCS(0), active)
	for w := 0; w < width; w++ {
		lo, hi := w*n/width, (w+1)*n/width
		h := newHost(rt.bar, mailbox*(hi-lo))
		h.idx = w
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
func (rt *Runtime) DroppedActions() int { return rt.x.Dropped() }

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
//
// Reading agent state between rounds (AllDecided) is race-free: every agent
// mutation happens on its host before the completion the coordinator's last
// barrier counted.
func (rt *Runtime) Run(ctx context.Context, maxRounds int) (int, error) {
	start := rt.round
	done := ctx.Done()
	for rt.round-start < maxRounds {
		select {
		case <-done:
			return rt.round - start, ctx.Err()
		default:
		}
		if rt.x.AllDecided(rt.round) {
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
	k := &rt.kinds
	return metrics.Live{
		WallClock:  wall,
		Rounds:     rt.round,
		Delivered:  k[MsgPush] + k[MsgVote] + k[MsgQuery] + k[MsgReply],
		Pushes:     k[MsgPush],
		Votes:      k[MsgVote],
		Queries:    k[MsgQuery],
		Replies:    k[MsgReply],
		LatencyP50: time.Duration(rt.lat.Quantile(0.50)),
		LatencyP99: time.Duration(rt.lat.Quantile(0.99)),
		LatencyMax: time.Duration(rt.lat.Max()),
	}
}

// step executes one synchronous round with exactly the engine's structure:
// dynamics advance, parallel Act, validation in node order, pushes then
// pulls in ascending node-ID order, round accounting. It reports false, the
// round uncounted, when Shutdown cut it short.
func (rt *Runtime) step() bool {
	round := rt.round
	rt.x.Advance(round)

	// Act fan-out: the hosts compute their active nodes' actions concurrently;
	// silent nodes contribute NoAction without being sent anything, so their
	// RNG streams stay untouched (exactly the engine's act()).
	for i := range rt.nodes {
		if rt.x.Silent(round, i) {
			rt.actions[i] = gossip.NoAction()
			continue
		}
		rt.fanout.Add(&rt.nodes[i], Message{Kind: MsgRound, Round: round})
	}
	if !rt.bar.await(accepted(rt.fanout.Flush())) {
		return false
	}

	rt.pushes, rt.pulls = rt.x.Plan(round, rt.actions, rt.pushes, rt.pulls)
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
	rt.x.EndRound()
	rt.round++
	return true
}

// dispatch adds message m for node to to the wave when fate f says it is
// carried: a sent message crosses the conduit, timed; a self-operation rides
// the batch untimed, since a direct mailbox send could overtake the wave's
// in-flight deliveries to the same node.
func (rt *Runtime) dispatch(f gossip.Fate, to int, m Message, now time.Time) {
	switch f {
	case gossip.FateSent:
		m.SentAt = now
		fallthrough
	case gossip.FateSelf:
		rt.batch.Add(&rt.nodes[to], m)
	}
}

// flushWave forces the staged wave out, keeps its results for arrived, and
// waits until every delivery that reached a mailbox, and the direct sends
// made beside the wave, have been handled — or reports false on Shutdown.
func (rt *Runtime) flushWave(direct int) bool {
	rt.oks = append(rt.oks[:0], rt.batch.Flush()...)
	rt.next = 0
	return rt.bar.await(direct + accepted(rt.oks))
}

// accepted counts the deliveries a flushed batch reports as accepted.
func accepted(oks []bool) int {
	k := 0
	for _, ok := range oks {
		if ok {
			k++
		}
	}
	return k
}

// arrived returns the fate to settle an operation of fate f with, consuming
// its result from the flushed wave when dispatch carried it — operations are
// asked about in dispatch order. A sent message the transport lost becomes
// FateLost; one a mailbox accepted is counted as a delivery of kind k.
func (rt *Runtime) arrived(f gossip.Fate, k MsgKind) gossip.Fate {
	if !f.Carried() {
		return f
	}
	ok := rt.oks[rt.next]
	rt.next++
	switch {
	case f == gossip.FateSelf:
		return f
	case !ok:
		return gossip.FateLost
	}
	rt.kinds[k]++
	return f
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

// firstLeg has the executor decide the first crossing of every operation in
// ids — the round's pushes, or its pulls' queries — dispatches every one that
// travels as one pipelined wave, and waits for the wave at the barrier.
// rt.out then holds the outcomes, in ids order, for arrived to complete.
func (rt *Runtime) firstLeg(round int, ids []int32) bool {
	rt.out = rt.out[:0]
	now := time.Now()
	for _, u := range ids {
		a := &rt.actions[u]
		f := rt.x.Decide(round, int(u), a)
		rt.dispatch(f, a.To, Message{Kind: kindOf(a), Round: round, From: int(u), Payload: a.Payload}, now)
		rt.out = append(rt.out, gossip.Outcome{Fate: f})
	}
	return rt.flushWave(0)
}

// pushWave carries the round's pushes as one pipelined wave and hands them to
// the executor's settlement in sender order — the simulator's transcript.
func (rt *Runtime) pushWave(round int) {
	if len(rt.pushes) == 0 || !rt.firstLeg(round, rt.pushes) {
		return
	}
	for i, u := range rt.pushes {
		a := &rt.actions[u]
		rt.x.SettlePush(round, int(u), a, rt.arrived(rt.out[i].Fate, kindOf(a)))
	}
}

// pullWaves carries the round's pulls — query out, optional reply back — in
// two pipelined waves. The query wave's barrier collects the targets'
// HandlePull results. The resolution pass then walks pullers in ascending
// order, matching replies per-target FIFO, and has the executor Answer each
// delivered query: a reply that survives crosses the conduit in the reply wave
// (timed), while the nil reply a failed pull produces — the same observation a
// quiescent target gives — goes straight to the puller's mailbox: it is not a
// link crossing, so the transport gets no chance to delay or drop it. The
// reply wave has at most one message per puller, so no ordering hazard
// remains. A puller whose reply the transport lost gets its nil last, and the
// executor settles every pull in puller order.
func (rt *Runtime) pullWaves(round int) {
	if len(rt.pulls) == 0 || !rt.firstLeg(round, rt.pulls) {
		return
	}
	now := time.Now()
	notifies := 0
	for i, u := range rt.pulls {
		a, o := &rt.actions[u], &rt.out[i]
		var reply gossip.Payload
		switch o.Fate = rt.arrived(o.Fate, MsgQuery); o.Fate {
		case gossip.FateSelf:
			continue // resolved on the puller's host
		case gossip.FateSent:
			reply = rt.x.Answer(round, int(u), a, rt.popReply(a.To), o)
		}
		if reply == nil {
			if rt.notify(round, int(u), a.To) {
				notifies++
			}
			continue
		}
		rt.batch.Add(&rt.nodes[u], Message{Kind: MsgReply, Round: round, From: a.To, Payload: reply, SentAt: now})
	}
	if !rt.flushWave(notifies) {
		return
	}

	notifies = 0
	for i, u := range rt.pulls {
		a, o := &rt.actions[u], &rt.out[i]
		if o.Reply == gossip.FateSent {
			if o.Reply = rt.arrived(o.Reply, MsgReply); o.Reply == gossip.FateLost && rt.notify(round, int(u), a.To) {
				notifies++
			}
		}
		rt.x.SettlePull(round, int(u), a, *o)
	}
	rt.bar.await(notifies)
}

// notify hands puller u the nil reply of a failed pull from target to,
// directly — see pullWaves — and reports whether a handling is now owed.
func (rt *Runtime) notify(round, u, to int) bool {
	return rt.nodes[u].Send(Message{Kind: MsgReply, Round: round, From: to})
}
