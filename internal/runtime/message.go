package runtime

import (
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
)

// MsgKind types the traffic a node's mailbox carries. Control traffic
// (MsgRound) comes from the scheduler; payload traffic (push, vote, query,
// reply) crosses the Conduit and is what latency is measured over.
type MsgKind uint8

const (
	// MsgRound is the scheduler's round-start control message: the node
	// computes its agent's action for the round and reports it back.
	MsgRound MsgKind = iota
	// MsgPush carries a pushed payload into the target's HandlePush.
	MsgPush
	// MsgVote is a push whose payload is a protocol vote — separated so
	// per-kind traffic accounting can tell the Voting phase's traffic from
	// certificate spreading. Nodes handle it exactly like MsgPush.
	MsgVote
	// MsgQuery carries a pull query into the target's HandlePull. A query
	// from a node to itself resolves the whole pull locally (the simulator's
	// free self-pull short-circuit).
	MsgQuery
	// MsgReply carries a pull reply (nil for a failed pull) into the
	// puller's HandlePullReply.
	MsgReply

	msgKinds = iota
)

// String names the kind.
func (k MsgKind) String() string {
	switch k {
	case MsgRound:
		return "round"
	case MsgPush:
		return "push"
	case MsgVote:
		return "vote"
	case MsgQuery:
		return "query"
	case MsgReply:
		return "reply"
	}
	return "unknown"
}

// Message is one typed mailbox entry.
type Message struct {
	Kind    MsgKind
	Round   int
	From    int
	Payload gossip.Payload
	// SentAt is stamped when the message enters the conduit, one reading
	// per wave; zero for scheduler-internal traffic. Latency runs from it to
	// the receiving host's clock reading for the message (see Node.handle).
	SentAt time.Time
	// Delay is the link delay a transport gave the message (FaultConduit's
	// jitter): its host handles it no earlier than SentAt + Delay, nor before
	// an entry queued ahead of it (see host). Unstamped, it is not held.
	Delay time.Duration
}

// kindOf maps an operation's first crossing to its message kind: a pull's
// query; a push of a protocol vote, which gets its own kind; or any other push
// (intentions, certificates).
func kindOf(a *gossip.Action) MsgKind {
	if a.Kind == gossip.ActPull {
		return MsgQuery
	}
	switch a.Payload.(type) {
	case *core.Vote, core.Vote:
		return MsgVote
	}
	return MsgPush
}
