package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gossip"
)

// Node is one protocol participant: an agent, the result slots its handlers
// fill, and the host that runs them. A node has no goroutine of its own — its
// mailbox is its share of the owning host's queue, and Send is the one way in.
type Node struct {
	id    int
	agent gossip.Agent
	host  *host

	// Result slots: the host writes while handling, the coordinator reads and
	// resets after a barrier (ownership rule under "Round barrier" in the
	// package doc).
	action  *gossip.Action   // the Act result; points into Runtime.actions
	replies []gossip.Payload // HandlePull results, in mailbox order
	lats    []time.Duration  // delivery latencies of timed messages
}

// hostMsg is one queue entry: a message and the node of the range it is for.
type hostMsg struct {
	n *Node
	m Message
}

// host is one goroutine serving a contiguous range of node IDs from one
// bounded multi-producer queue. Producers append under mu and wake the host
// only when it is parked; the host swaps the whole pending slice for its spare
// and handles the entries in queue order with no lock held, so a message costs
// one uncontended lock on the way in and none on the way out. A node has
// exactly one host, so its messages are handled in the order they were
// accepted — the per-destination FIFO the coordinator and Batch rely on.
type host struct {
	bar   *barrier
	limit int // queue bound: Mailbox × nodes in the range; put blocks at it

	mu      sync.Mutex
	pending []hostMsg
	parked  bool          // the host waits on wake; the next put owes it a token
	wake    chan struct{} // 1 slot
	room    chan struct{} // closed and replaced by the swap that empties a full queue
}

func newHost(bar *barrier, limit int) *host {
	return &host{
		bar:     bar,
		limit:   limit,
		pending: make([]hostMsg, 0, limit),
		wake:    make(chan struct{}, 1),
		room:    make(chan struct{}),
	}
}

// put enqueues m for n, blocking while the queue is at its bound. It reports
// false — nothing enqueued — once the runtime has shut down.
func (h *host) put(n *Node, m Message) bool {
	if h.bar.stopped.Load() {
		return false
	}
	h.mu.Lock()
	for len(h.pending) >= h.limit {
		room := h.room
		h.mu.Unlock()
		select {
		case <-room:
		case <-h.bar.stop:
			return false
		}
		h.mu.Lock()
	}
	h.pending = append(h.pending, hostMsg{n, m})
	wake := h.parked
	h.parked = false
	h.mu.Unlock()
	if wake {
		h.wake <- struct{}{} // never blocks: one token per park
	}
	return true
}

// run is the host goroutine: swap the queue out, handle it, count it, until
// shutdown. The flag is checked before every message, so a stopped host
// abandons the rest of its queue.
func (h *host) run(wg *sync.WaitGroup) {
	defer wg.Done()
	batch := make([]hostMsg, 0, h.limit)
	for {
		h.mu.Lock()
		for len(h.pending) == 0 {
			h.parked = true
			h.mu.Unlock()
			select {
			case <-h.wake:
			case <-h.bar.stop:
				return
			}
			h.mu.Lock()
		}
		batch, h.pending = h.pending, batch[:0]
		if len(batch) >= h.limit { // puts may be waiting for this
			close(h.room)
			h.room = make(chan struct{})
		}
		h.mu.Unlock()
		for i := range batch {
			if h.bar.stopped.Load() {
				return
			}
			batch[i].n.handle(&batch[i].m)
		}
		h.bar.complete(len(batch))
	}
}

// barrier is the one rendezvous between the hosts and the coordinator: a
// host counts a whole handled batch with one atomic add, and only the add that
// carries the count across the published target touches the wake channel.
//
// No wake-up is lost: complete does done.Add then want.Load, await does
// want.Store then done.Load, all sequentially consistent, and done only
// grows, so exactly one add takes it from below the target to at or above it.
// That add either sees the target — its own old value is below it, its new
// one is not — and signals, or loaded want, and so added to done, before the
// target was stored, and await's done.Load then already reads a count at or
// past the target and does not park. A stale token in wake (a signal await's
// own check made redundant, an add that crossed an earlier target, or halt's)
// only costs the loop one more look at done and stopped.
type barrier struct {
	done   atomic.Int64  // messages handled, cumulative over the run
	want   atomic.Int64  // the value of done the coordinator is parked on
	wake   chan struct{} // 1 slot
	issued int64         // messages awaited so far; the coordinator's own

	stopped atomic.Bool
	stop    chan struct{} // closed by halt; parked hosts and blocked puts select on it
}

func newBarrier() *barrier {
	return &barrier{stop: make(chan struct{}), wake: make(chan struct{}, 1)}
}

// complete counts k handled messages.
func (b *barrier) complete(k int) {
	done := b.done.Add(int64(k))
	if want := b.want.Load(); done-int64(k) < want && want <= done {
		b.signal()
	}
}

func (b *barrier) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// await parks the coordinator until the n messages it has put into queues
// since its last await are handled too. Once the runtime is stopped it
// reports false, at once and for good: the caller must then not touch node
// state, whose writers may still run.
func (b *barrier) await(n int) bool {
	b.issued += int64(n)
	b.want.Store(b.issued)
	for !b.stopped.Load() {
		if b.done.Load() >= b.issued {
			return true
		}
		<-b.wake
	}
	return false
}

// halt raises the flag, releases every put blocked on a full queue and every
// parked host, and wakes a parked await. Call it once.
func (b *barrier) halt() {
	b.stopped.Store(true)
	close(b.stop)
	b.signal()
}

// ID returns the node's index in the topology.
func (n *Node) ID() int { return n.id }

// Send enqueues a message for the node on its host's queue, blocking while
// that queue is full (backpressure). It reports false — without delivering —
// once the runtime has shut down. It is safe from any goroutine; messages one
// goroutine Sends to one node are handled in Send order.
func (n *Node) Send(m Message) bool { return n.host.put(n, m) }

// handle processes one message through the agent, on the node's host.
func (n *Node) handle(m *Message) {
	if !m.SentAt.IsZero() {
		n.lats = append(n.lats, time.Since(m.SentAt))
	}
	switch m.Kind {
	case MsgRound:
		*n.action = n.agent.Act(m.Round)
	case MsgPush, MsgVote:
		n.agent.HandlePush(m.Round, m.From, m.Payload)
	case MsgQuery:
		if m.From == n.id {
			// Self-pull: resolve locally, exactly the simulator's free
			// short-circuit — query and reply never cross a link.
			n.agent.HandlePullReply(m.Round, n.id, n.agent.HandlePull(m.Round, n.id, m.Payload))
		} else {
			n.replies = append(n.replies, n.agent.HandlePull(m.Round, m.From, m.Payload))
		}
	case MsgReply:
		n.agent.HandlePullReply(m.Round, m.From, m.Payload)
	}
}
