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
	lats    []time.Duration  // latencies of timed messages, each to its host's clock reading (see handle)
}

// hostMsg is one queue entry: a message and the node of the range it is for.
type hostMsg struct {
	n *Node
	m Message
}

// host is one goroutine serving a contiguous range of node IDs from one
// bounded multi-producer queue. Producers append under mu — a whole chunk of
// entries per lock when they come through a hand-over batch (putAll), one
// when through Send — and wake the host only when it is parked; the host
// swaps the whole pending slice for its spare, reads the clock once, and
// handles the entries in queue order with no lock held, so a wave costs one
// uncontended lock per chunk on the way in, none on the way out, and one
// clock read per swapped batch. A node has exactly one host, so its messages
// are handled in the order they were accepted — the per-destination FIFO the
// coordinator and Batch rely on — delayed or not.
type host struct {
	bar   *barrier
	idx   int // the host's place in its runtime's range order; a handOver's stage key
	limit int // queue bound: Mailbox × nodes in the range; putAll blocks at it

	mu      sync.Mutex
	pending []hostMsg
	parked  bool          // the host waits on wake; the next putAll owes it a token
	wake    chan struct{} // 1 slot
	room    chan struct{} // closed and replaced by the swap that empties a full queue
	timer   *time.Timer   // run's wait for a due time; made by the first wait
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

// putAll enqueues entries in order, each append taking as many as the bound
// leaves room for, and blocks while the queue is full. It reports how many
// entries — a prefix — it enqueued: all of them, unless the runtime shut down
// first.
func (h *host) putAll(entries []hostMsg) int {
	put := 0
	for put < len(entries) {
		if h.bar.stopped.Load() {
			return put
		}
		h.mu.Lock()
		for len(h.pending) >= h.limit {
			room := h.room
			h.mu.Unlock()
			select {
			case <-room:
			case <-h.bar.stop:
				return put
			}
			h.mu.Lock()
		}
		k := min(len(entries)-put, h.limit-len(h.pending))
		h.pending = append(h.pending, entries[put:put+k]...)
		put += k
		wake := h.parked
		h.parked = false
		h.mu.Unlock()
		if wake {
			h.wake <- struct{}{} // never blocks: one token per park
		}
	}
	return put
}

// run is the host goroutine: swap the queue out, read the clock, handle the
// batch against that reading, count it, until shutdown. The flag is checked
// before every message, so a stopped host abandons the rest of its queue.
// Entries not yet due (Message.Delay) are waited for in queue order, so a
// wave of delays costs about its largest.
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
		now := time.Now()
		for i := range batch {
			if h.bar.stopped.Load() {
				return
			}
			m := &batch[i].m
			if m.Delay > 0 && !h.waitDue(m, &now) {
				return
			}
			batch[i].n.handle(m, now)
		}
		h.bar.complete(len(batch))
	}
}

// waitDue waits on the host's one timer until m is due, if it is not at
// *now, and then reads the clock into *now. It reports false if the runtime
// stopped first.
func (h *host) waitDue(m *Message, now *time.Time) bool {
	due := m.SentAt.Add(m.Delay)
	if !due.After(*now) {
		return true
	}
	if h.timer == nil {
		h.timer = time.NewTimer(time.Until(due))
	} else {
		h.timer.Reset(time.Until(due)) // fired and drained by the last wait
	}
	select {
	case <-h.timer.C:
	case <-h.bar.stop:
		return false
	}
	*now = time.Now()
	return true
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

// halt raises the flag, releases every putAll blocked on a full queue and every
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
func (n *Node) Send(m Message) bool { return n.host.putAll([]hostMsg{{n, m}}) == 1 }

// handle processes one message through the agent, on the node's host; now is
// the host's latest clock reading: at the start of the message's batch, or
// after the host's last wait for a due time, whichever came later.
func (n *Node) handle(m *Message, now time.Time) {
	if !m.SentAt.IsZero() {
		n.lats = append(n.lats, now.Sub(m.SentAt))
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
