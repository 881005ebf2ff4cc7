package runtime

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"time"

	"repro/internal/gossip"
	"repro/internal/rng"
)

// Conduit is the pluggable transport between the scheduler and a node's
// mailbox. The protocol logic never sees it: swapping the transport — for a
// lossy one, a delaying one, a socket-backed one — changes how messages
// travel, never what they mean.
//
// The coordinator drives every round through a Batch from NewBatch; Deliver
// carries one message into dst's mailbox, blocking while it is full (the
// runtime's backpressure). Deliver reports whether the message survived
// transport: false means the conduit dropped it before it reached dst (dst is
// untouched, and the scheduler applies the loss semantics of the simulator's
// FaultModel.Drop — a lost push, a failed pull), or that dst has shut down. A
// conduit delays a message by setting its Delay, never by holding it: the
// receiving host honours the due time.
//
// Concurrency contract: Deliver must be safe for concurrent calls, beside
// batches too: the socket transport lands deliveries from listener
// goroutines, and tests and external schedulers overlap them freely.
// Seed-derived randomness therefore has to be a keyed decision about the
// message (gossip.Loss), never a draw from a shared stream.
//
// A Conduit that holds transport resources may additionally implement
// io.Closer; Runtime.Shutdown closes it after every host goroutine has
// exited.
type Conduit interface {
	Deliver(dst *Node, m Message) bool
	// NewBatch returns an empty, reusable delivery batch, owned by one
	// goroutine (the coordinator) and not safe for concurrent use.
	NewBatch() Batch
}

// BatchConduit is an alias of Conduit, for callers that still name it.
type BatchConduit = Conduit

// Batch collects one wave of deliveries. Add enqueues without waiting for
// the result; Flush forces everything onto the wire and blocks until every
// added delivery has resolved — mailbox-accepted (true) or lost in transport
// (false) — returning the results in Add order. The returned slice is valid
// until the next Add or Flush; the batch is empty and reusable afterwards.
// Add may block on mailbox backpressure, but never waits for a transport
// acknowledgement: that is what Flush settles in bulk.
//
// The protocol's correctness barrier is the round, not the message, so the
// only order a batch must keep is per destination: messages Added for one
// node enter its mailbox in Add order, the simulator's ascending sender order
// that vote multisets, certificate W-entry order and trace bytes rest on.
// Cross-destination interleaving is free.
type Batch interface {
	Add(dst *Node, m Message)
	Flush() []bool
}

// ChannelConduit is the loss-free, zero-latency in-process transport: a
// direct handoff into the destination's mailbox. Under the deterministic
// round-barrier scheduler it makes the runtime transcript-equivalent to the
// simulator.
type ChannelConduit struct{}

// Deliver hands the message straight to the destination node.
func (ChannelConduit) Deliver(dst *Node, m Message) bool { return dst.Send(m) }

// NewBatch implements Conduit: the returned batch hands a wave to the
// hosts in per-host chunks (see handOver) — one lock per chunk instead of one
// Send per message.
func (ChannelConduit) NewBatch() Batch { return &handOver{} }

// handOverChunk is how many staged entries a handOver gives a host in one
// putAll. It trades lock traffic against overlap: a wave addresses about one
// message per node, so a chunk pays one lock and at most one wake-up for 64
// messages, while a host serving 128 or more nodes still gets its first chunk
// of a wave long before the coordinator has dispatched all of it. On a 2-vCPU
// Xeon, BenchmarkRuntimeRound/n=1024 at -cpu 2 read 16 through 256 within
// noise of each other (64 the best median), 4 about 10 % slower, a chunk
// handed over only at Flush about 20 % slower, and one Send per message
// about 60 % slower.
const handOverChunk = 64

// handOver is the channel transport's batch and the coordinator's own for the
// round fan-out: Add stages the message for the destination's host, a stage
// that reaches handOverChunk entries is handed over whole, and Flush hands
// over every remainder. A stage keeps Add order and a node has one host, so
// per-destination FIFO holds. A delivery is accepted unless Shutdown cut its
// putAll short; those entries, and every later one, report false.
type handOver struct {
	stages  []hostStage // indexed by host.idx
	results []bool
}

// hostStage is one host's staged entries, each with its index in results.
type hostStage struct {
	h    *host
	msgs []hostMsg
	idxs []int32
}

func (b *handOver) Add(dst *Node, m Message) {
	h := dst.host
	if h.idx >= len(b.stages) {
		b.stages = append(b.stages, make([]hostStage, h.idx+1-len(b.stages))...)
	}
	st := &b.stages[h.idx]
	if st.h != h { // first use, or a host of another runtime held the slot
		b.give(st)
		st.h = h
	}
	// In place: amd64 copies an 80-byte hostMsg literal by runtime.duffcopy.
	k := len(st.msgs)
	st.msgs = slices.Grow(st.msgs, 1)[:k+1]
	st.msgs[k].n, st.msgs[k].m = dst, m
	st.idxs = append(st.idxs, int32(len(b.results)))
	b.results = append(b.results, true)
	if len(st.msgs) == handOverChunk {
		b.give(st)
	}
}

// give hands a stage to its host and marks what the host refused.
func (b *handOver) give(st *hostStage) {
	if len(st.msgs) == 0 {
		return
	}
	for _, i := range st.idxs[st.h.putAll(st.msgs):] {
		b.results[i] = false
	}
	st.msgs, st.idxs = st.msgs[:0], st.idxs[:0]
}

func (b *handOver) Flush() []bool {
	for i := range b.stages {
		b.give(&b.stages[i])
	}
	r := b.results
	b.results = b.results[:0]
	return r
}

// conduitStreamSalt separates a FaultConduit's transport decisions from every
// other use of a run seed — in particular from the scenario-level loss
// decisions (core's dropStreamSalt), which the simulator shares.
const conduitStreamSalt = 0xfa117c0d

// legJitter offsets a message kind into the leg its jitter is read under, so
// one message's delay is independent of its drop decision.
const legJitter = gossip.Leg(msgKinds)

// FaultConduit layers seed-derived per-message drop and latency jitter on
// top of an inner transport. Drops reuse the simulator's FaultModel.Drop
// observation model (the sender has paid, the receiver sees silence); jitter
// gives each delivery a uniform [0, Jitter) link delay, its Message.Delay,
// turning the latency distribution from a point mass into something worth
// measuring. Both are keyed decisions (gossip.Loss under the conduit's own
// salt) about the message's (round, sender, receiver, kind), so the conduit
// holds no state a delivery could change: a faulty transport is exactly as
// reproducible as a clean one, from any number of concurrent callers, through
// Deliver or through a batch.
type FaultConduit struct {
	inner  Conduit
	fate   gossip.Loss
	jitter time.Duration
}

// NewFaultConduit builds a fault-injecting transport over inner (nil means
// ChannelConduit). drop is the per-message transport loss probability in
// [0, 1); jitter is the maximum per-message delivery delay (0 disables).
// Every decision is keyed from seed, so runs repeat bit-for-bit.
func NewFaultConduit(inner Conduit, seed uint64, drop float64, jitter time.Duration) *FaultConduit {
	if drop < 0 || drop >= 1 {
		panic(fmt.Sprintf("runtime: conduit drop probability %v outside [0, 1)", drop))
	}
	if jitter < 0 {
		panic("runtime: negative conduit jitter")
	}
	if inner == nil {
		inner = ChannelConduit{}
	}
	return &FaultConduit{
		inner:  inner,
		fate:   gossip.KeyedLoss(drop, rng.Mix64(seed, conduitStreamSalt)),
		jitter: jitter,
	}
}

// admit decides one message's fate: false means the transport dropped it;
// otherwise the message's link delay is added to its Delay. A message a node
// addresses to itself is local — it rides a wave only for mailbox order — and
// passes untouched.
func (c *FaultConduit) admit(dst *Node, m *Message) bool {
	if m.From == dst.id {
		return true
	}
	leg := gossip.Leg(m.Kind)
	if c.fate.Lost(m.Round, m.From, dst.id, leg) {
		return false
	}
	if c.jitter > 0 {
		delay, _ := bits.Mul64(c.fate.Bits(m.Round, m.From, dst.id, leg+legJitter), uint64(c.jitter))
		m.Delay += time.Duration(delay)
	}
	return true
}

// Deliver forwards the message to the inner transport unless admit drops it.
func (c *FaultConduit) Deliver(dst *Node, m Message) bool {
	return c.admit(dst, &m) && c.inner.Deliver(dst, m)
}

// NewBatch decorates the inner transport's batch: a dropped message never
// reaches it, and Flush folds the inner results back into Add order.
func (c *FaultConduit) NewBatch() Batch {
	return &faultBatch{c: c, inner: c.inner.NewBatch()}
}

// faultBatch is one wave through a FaultConduit. fates holds, per Add, whether
// the message was forwarded; Flush overwrites each forwarded entry with the
// inner batch's result for it and returns the slice.
type faultBatch struct {
	c     *FaultConduit
	inner Batch
	fates []bool
}

func (b *faultBatch) Add(dst *Node, m Message) {
	ok := b.c.admit(dst, &m)
	b.fates = append(b.fates, ok)
	if ok {
		b.inner.Add(dst, m)
	}
}

func (b *faultBatch) Flush() []bool {
	oks := b.inner.Flush()
	j := 0
	for i, forwarded := range b.fates {
		if forwarded {
			b.fates[i] = oks[j]
			j++
		}
	}
	r := b.fates
	b.fates = b.fates[:0]
	return r
}

// Close forwards to the inner transport when it holds resources (a wrapped
// socket conduit), so Runtime.Shutdown tears the whole transport stack down
// through the fault layer.
func (c *FaultConduit) Close() error {
	if cl, ok := c.inner.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}
