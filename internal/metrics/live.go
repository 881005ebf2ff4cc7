package metrics

import (
	"fmt"
	"time"
)

// Live captures the observables that only exist once messages move through a
// real transport: wall-clock convergence time and per-message delivery
// latency. The simulator's round/message counters (Snapshot) measure the
// protocol; Live measures the runtime executing it. Latency quantiles are
// streaming estimates (stats.QuantileSketch) over every payload message the
// conduit carried — pushes, votes, pull queries, and pull replies — each
// measured from its send stamp to the start of the host batch that handles it.
type Live struct {
	// WallClock is the total execution time of the run.
	WallClock time.Duration
	// Rounds is the number of rounds the runtime scheduler executed.
	Rounds int
	// Delivered counts the payload messages the conduit carried to a handler;
	// messages lost on the link or dropped in transport are not included.
	Delivered int64
	// Per-kind delivery counts: pushes (non-vote payloads), votes, pull
	// queries, and pull replies.
	Pushes, Votes, Queries, Replies int64
	// Latency quantiles over the delivered payload messages.
	LatencyP50, LatencyP99, LatencyMax time.Duration
}

// String renders the report compactly.
func (l Live) String() string {
	return fmt.Sprintf("wall=%s rounds=%d delivered=%d (push=%d vote=%d query=%d reply=%d) latency p50=%s p99=%s max=%s",
		l.WallClock.Round(time.Microsecond), l.Rounds, l.Delivered,
		l.Pushes, l.Votes, l.Queries, l.Replies,
		l.LatencyP50, l.LatencyP99, l.LatencyMax)
}
