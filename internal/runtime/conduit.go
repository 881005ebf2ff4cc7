package runtime

import (
	"fmt"
	"io"
	"math/bits"
	"time"

	"repro/internal/gossip"
	"repro/internal/rng"
)

// Conduit is the pluggable transport between the scheduler and a node's
// mailbox. The protocol logic never sees it: swapping the transport — for a
// lossy one, a delaying one, eventually a socket-backed one — changes how
// messages travel, never what they mean.
//
// Deliver carries one payload message into dst's mailbox, blocking while
// the mailbox is full (the runtime's backpressure). It reports whether the
// message survived transport: false means the conduit dropped it before it
// reached dst (dst is untouched), and the scheduler then applies the same
// loss semantics the simulator's FaultModel.Drop produces — a lost push, a
// failed pull. Delivery to a node that has shut down also reports false.
//
// Concurrency contract: implementations must be safe for concurrent Deliver
// calls. The coordinator drives a conduit from one goroutine, through a Batch,
// but it is not the only caller: the socket transport lands deliveries from
// listener goroutines, and tests and external schedulers overlap Delivers
// freely — so a conduit may never assume callers serialize it. Seed-derived
// randomness therefore has to be a keyed decision about the message
// (gossip.Loss), never a draw from a shared stream: the answer must not
// depend on which caller asked first.
//
// A Conduit that holds transport resources may additionally implement
// io.Closer; Runtime.Shutdown closes it after every host goroutine has
// exited.
type Conduit interface {
	Deliver(dst *Node, m Message) bool
}

// BatchConduit is the round-batched seam of the transport: a conduit that
// can accept a whole delivery wave without blocking per message. The
// coordinator pipelines every round through a Batch — dispatch every delivery
// of one phase, then settle all results at the round barrier — so a conduit
// that can coalesce a wave (the socket transport's multi-message frames)
// implements it; one that cannot is driven through the same seam by an
// adapter whose Add is Deliver (see newBatch).
//
// The protocol's correctness barrier is the round, not the message, so the
// only ordering a batch must preserve is per destination: messages Added for
// the same node must enter its mailbox in Add order (the simulator delivers
// in ascending sender order, and vote multisets, certificate W-entry order,
// and trace bytes all depend on it). Cross-destination interleaving is free.
type BatchConduit interface {
	Conduit
	// NewBatch returns an empty, reusable delivery batch. A batch is owned
	// by one goroutine (the coordinator) and is not safe for concurrent use;
	// the conduit itself must still honor Deliver's concurrency contract.
	NewBatch() Batch
}

// Batch collects one wave of deliveries. Add enqueues without waiting for
// the result; Flush forces everything onto the wire and blocks until every
// added delivery has resolved — mailbox-accepted (true) or lost in transport
// (false) — returning the results in Add order. The returned slice is valid
// until the next Add or Flush; the batch is empty and reusable afterwards.
//
// Add may still block on destination-mailbox backpressure (the channel
// transport hands off directly; the socket transport's server blocks the
// connection, not the caller) — what it never does is wait for a transport
// acknowledgement, which is what Flush settles in bulk.
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

// NewBatch implements BatchConduit: a direct handoff has nothing to
// coalesce, so the channel batch is the Deliver adapter.
func (c ChannelConduit) NewBatch() Batch { return &deliverBatch{c: c} }

// deliverBatch adapts a plain Conduit to the batch seam: each Add is one
// Deliver, its result recorded in Add order. Nothing is coalesced, so what
// the seam buys such a conduit is exactly the pipelining — the coordinator
// does not wait for the node between deliveries, and node handlers overlap
// with the rest of the wave's dispatch.
type deliverBatch struct {
	c       Conduit
	results []bool
}

func (b *deliverBatch) Add(dst *Node, m Message) {
	b.results = append(b.results, b.c.Deliver(dst, m))
}

func (b *deliverBatch) Flush() []bool {
	r := b.results
	b.results = b.results[:0]
	return r
}

// newBatch returns the batch the coordinator drives c through: the conduit's
// own when it has the seam, the Deliver adapter otherwise.
func newBatch(c Conduit) Batch {
	if bc, ok := c.(BatchConduit); ok {
		return bc.NewBatch()
	}
	return &deliverBatch{c: c}
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
// delays each delivery by a uniform [0, Jitter) sleep, turning the latency
// distribution from a point mass into something worth measuring. Both are
// keyed decisions (gossip.Loss under the conduit's own salt) about the
// message's (round, sender, receiver, kind), so the conduit holds no state a
// delivery could change: a faulty transport is exactly as reproducible as a
// clean one, from any number of concurrent callers, through Deliver or
// through a batch.
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
// otherwise it has slept the message's jitter. A message a node addresses to
// itself is local — it rides a wave only for mailbox order — and passes
// untouched. The sleep is this message's link delay, not time spent queued
// behind earlier messages' delays, so a timed message is re-stamped as it
// enters the link.
func (c *FaultConduit) admit(dst *Node, m *Message) bool {
	if m.From == dst.id {
		return true
	}
	leg := gossip.Leg(m.Kind)
	if c.fate.Lost(m.Round, m.From, dst.id, leg) {
		return false
	}
	if c.jitter > 0 {
		if !m.SentAt.IsZero() {
			m.SentAt = time.Now()
		}
		delay, _ := bits.Mul64(c.fate.Bits(m.Round, m.From, dst.id, leg+legJitter), uint64(c.jitter))
		time.Sleep(time.Duration(delay))
	}
	return true
}

// Deliver forwards the message to the inner transport unless admit drops it.
func (c *FaultConduit) Deliver(dst *Node, m Message) bool {
	return c.admit(dst, &m) && c.inner.Deliver(dst, m)
}

// NewBatch implements BatchConduit by decorating the inner transport's batch:
// a dropped message never reaches it, and Flush folds the inner results back
// into Add order.
func (c *FaultConduit) NewBatch() Batch {
	return &faultBatch{c: c, inner: newBatch(c.inner)}
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
