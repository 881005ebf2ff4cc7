package runtime

import (
	"fmt"
	"io"
	"sync"
	"time"

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
// calls. The coordinator calls Deliver from one goroutine, and only on the
// serial path (a conduit without the batch seam, a lossy pull phase), but it
// is not the only caller: the socket transport lands deliveries from
// listener goroutines, and tests and external schedulers overlap Delivers
// freely — so a conduit may never assume callers serialize it. (For
// seed-derived randomness this means guarding the stream; the draw order,
// and with it bit-for-bit reproducibility, is then still the order Deliver
// is called in — the coordinator's serial order, for a run.)
//
// A Conduit that holds transport resources may additionally implement
// io.Closer; Runtime.Shutdown closes it after every node goroutine has
// exited.
type Conduit interface {
	Deliver(dst *Node, m Message) bool
}

// BatchConduit is the round-batched seam of the transport: a conduit that
// can additionally accept a whole delivery wave without blocking per
// message. The coordinator uses it to pipeline a round — dispatch every
// delivery of one phase, then settle all results at the round barrier —
// instead of paying one synchronous transport round trip per message. A
// conduit that does not implement it (the fault-injecting layer, external
// test conduits) is driven through Deliver, one awaited message at a time.
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

// NewBatch implements BatchConduit. A channel batch has nothing to
// coalesce — each Add is the same direct mailbox handoff Deliver makes — so
// batching buys exactly the pipelining: the coordinator does not wait for
// the node between handoffs, and node handlers overlap with the rest of the
// wave's dispatch.
func (ChannelConduit) NewBatch() Batch { return &channelBatch{} }

// channelBatch records direct-handoff results in Add order.
type channelBatch struct {
	results []bool
}

func (b *channelBatch) Add(dst *Node, m Message) {
	b.results = append(b.results, dst.Send(m))
}

func (b *channelBatch) Flush() []bool {
	r := b.results
	b.results = b.results[:0]
	return r
}

// conduitStreamSalt separates a FaultConduit's transport randomness from
// every other use of a run seed — in particular from the scheduler-level
// loss stream (core's dropStreamSalt), which must stay aligned with the
// simulator's draw order.
const conduitStreamSalt = 0xfa117c0d

// FaultConduit layers seed-derived per-message drop and latency jitter on
// top of an inner transport. Drops reuse the simulator's FaultModel.Drop
// observation model (the sender has paid, the receiver sees silence); jitter
// delays each delivery by a uniform [0, Jitter) sleep, turning the latency
// distribution from a point mass into something worth measuring. Both draws
// come from one private stream, so a faulty transport is exactly as
// reproducible as a clean one.
//
// The stream is guarded by a mutex: concurrent Delivers (see the Conduit
// concurrency contract) draw race-free, in whatever order they arrive. Under
// a serial caller — the round-barrier coordinator — the draw order is the
// call order and runs stay bit-for-bit reproducible.
type FaultConduit struct {
	inner  Conduit
	drop   float64
	jitter time.Duration

	mu sync.Mutex // guards r: one unguarded stream would race under concurrent Deliver
	r  rng.Source
}

// NewFaultConduit builds a fault-injecting transport over inner (nil means
// ChannelConduit). drop is the per-message transport loss probability in
// [0, 1); jitter is the maximum per-message delivery delay (0 disables).
// The stream is derived from seed, so runs repeat bit-for-bit.
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
	c := &FaultConduit{inner: inner, drop: drop, jitter: jitter}
	c.r.Reseed(rng.Mix64(seed, conduitStreamSalt))
	return c
}

// Deliver draws the message's fate — drop, then delay — and forwards the
// survivors to the inner transport. Both draws happen under the stream lock;
// the jitter sleep itself does not, so concurrent deliveries delay each
// other only by their own jitter.
func (c *FaultConduit) Deliver(dst *Node, m Message) bool {
	c.mu.Lock()
	dropped := c.drop > 0 && c.r.Bool(c.drop)
	var delay time.Duration
	if !dropped && c.jitter > 0 {
		delay = time.Duration(c.r.Uint64n(uint64(c.jitter)))
	}
	c.mu.Unlock()
	if dropped {
		return false
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return c.inner.Deliver(dst, m)
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
