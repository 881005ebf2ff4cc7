package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gossip"
)

// Node is one protocol participant running on its own goroutine: it drains
// its bounded mailbox, invokes the agent's phase logic for each message,
// leaves what the handler produced in its result slots, and counts the
// message handled on the runtime's barrier. The mailbox is the backpressure
// boundary — Send blocks while it is full. A node checks the barrier's
// stopped flag after every receive, and Runtime.Shutdown wakes idle nodes
// with a poison message, so a node never leaks, idle or mid-queue.
type Node struct {
	id    int
	agent gossip.Agent
	inbox chan Message
	bar   *barrier

	// Result slots: the node writes, the coordinator reads and resets after
	// a barrier (ownership rule under "Round barrier" in the package doc).
	action  *gossip.Action   // the Act result; points into Runtime.actions
	replies []gossip.Payload // HandlePull results, in mailbox order
	lats    []time.Duration  // delivery latencies of timed messages
}

// barrier is the one rendezvous between the node goroutines and the
// coordinator: a completion is one atomic add, and only the completion that
// reaches the published target touches the wake channel.
//
// No wake-up is lost: complete does done.Add then want.Load, await does
// want.Store then done.Load, all sequentially consistent. So the completion
// that brings done to the target either sees the target and signals, or
// loaded want — and so added to done — before the target was stored, and
// await's done.Load then already reads the full count and does not park. A
// stale token in wake (a signal await's own check made redundant, or halt's)
// only costs the loop one more look at done and stopped.
type barrier struct {
	done   atomic.Int64  // messages handled, cumulative over the run
	want   atomic.Int64  // the value of done the coordinator is parked on
	wake   chan struct{} // 1 slot
	issued int64         // messages awaited so far; the coordinator's own

	stopped atomic.Bool
	stop    chan struct{} // closed by halt; selected on only when a mailbox is full
}

func newBarrier() *barrier {
	return &barrier{stop: make(chan struct{}), wake: make(chan struct{}, 1)}
}

// complete counts one handled message.
func (b *barrier) complete() {
	if b.done.Add(1) == b.want.Load() {
		b.signal()
	}
}

func (b *barrier) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// await parks the coordinator until the n messages it has put into mailboxes
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

// halt raises the flag, releases every Send blocked on a full mailbox, and
// wakes a parked await. Call it once.
func (b *barrier) halt() {
	b.stopped.Store(true)
	close(b.stop)
	b.signal()
}

// ID returns the node's index in the topology.
func (n *Node) ID() int { return n.id }

// Send enqueues a message into the node's mailbox, blocking while the
// mailbox is full (backpressure). It reports false — without delivering —
// once the runtime has shut down.
func (n *Node) Send(m Message) bool {
	if n.bar.stopped.Load() {
		return false
	}
	select {
	case n.inbox <- m:
		return true
	default:
	}
	// Mailbox full: wait for room, or for shutdown to give up on it.
	select {
	case n.inbox <- m:
		return true
	case <-n.bar.stop:
		return false
	}
}

// run is the node goroutine: drain the mailbox until shutdown.
func (n *Node) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		m := <-n.inbox
		if n.bar.stopped.Load() {
			return
		}
		n.handle(m)
	}
}

// handle processes one message through the agent and counts it handled,
// exactly once — the coordinator's lockstep depends on it.
func (n *Node) handle(m Message) {
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
	n.bar.complete()
}
