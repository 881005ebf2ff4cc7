package gossip

import (
	"fmt"

	"repro/internal/rng"
)

// Leg names which message of an operation is crossing a link. In the GOSSIP
// model an agent performs at most one push or one pull per round, so (round,
// sender, receiver, leg) identifies a crossing uniquely within a run.
type Leg uint8

const (
	LegPush  Leg = iota // a pushed payload, pusher → target
	LegQuery            // a pull's query, puller → target
	LegReply            // a pull's reply, target → puller
)

// lossKeyIndex is the split index a loss key is derived under, so the key is
// unrelated to anything else drawn from or split off the same source.
const lossKeyIndex = 0x10557a6e

// Loss is the keyed message-loss decision: whether a crossing is lost is a
// pure function of a per-run key and the crossing's identity, not a draw from
// a stream. It therefore does not matter when, in what order, or how often a
// crossing is asked about — which is what lets the executor decide a whole
// wave before the message-passing runtime carries it, and a fault-injecting
// transport decide its own losses independently, and still agree. The zero
// value never loses anything.
type Loss struct {
	key  uint64
	drop float64
}

// NewLoss builds the decision for a run losing each crossing with probability
// drop, keyed from src's seed lineage (src is not advanced). It panics on a
// probability outside [0, 1) and on drop > 0 without a source; drop == 0
// never touches src.
func NewLoss(drop float64, src *rng.Source) Loss {
	if drop < 0 || drop >= 1 {
		panic(fmt.Sprintf("gossip: drop probability %v outside [0, 1)", drop))
	}
	if drop == 0 {
		return Loss{}
	}
	if src == nil {
		panic("gossip: Drop > 0 requires a DropRand source")
	}
	return Loss{key: src.SplitSeed(lossKeyIndex), drop: drop}
}

// KeyedLoss is NewLoss for a caller that owns its key — a transport salting
// the run seed apart from the scenario-level decisions.
func KeyedLoss(drop float64, key uint64) Loss {
	return Loss{key: key, drop: drop}
}

// Bits hashes one crossing into 64 uniform bits. Every keyed decision about a
// crossing (loss here, a transport's jitter) is read off these; decisions that
// must be independent use different legs.
func (l Loss) Bits(round, from, to int, leg Leg) uint64 {
	return rng.Mix64(rng.Mix64(l.key, uint64(round)<<8|uint64(leg)), uint64(from)<<32|uint64(uint32(to)))
}

// Lost reports whether the crossing is lost: Bernoulli(drop) on its bits,
// with rng.Source.Float64's 53-bit mapping.
func (l Loss) Lost(round, from, to int, leg Leg) bool {
	return l.drop > 0 && float64(l.Bits(round, from, to, leg)>>11)/(1<<53) < l.drop
}
