package fairgossip

import (
	"context"
	"io"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/netconduit"
	"repro/internal/scenario"
)

// LiveOptions configures one RunLive execution on the message-passing
// runtime.
type LiveOptions struct {
	// Seed overrides the scenario seed when non-zero.
	Seed uint64
	// Transport selects the conduit messages cross: "" or "channel" is the
	// in-process channel handoff; "unix" and "tcp" carry every delivery over
	// a real loopback socket (Unix-domain or TCP) as length-prefixed binary
	// frames. All three are transcript-equivalent — the protocol outcome for
	// a given seed does not depend on the transport — but the wall-clock and
	// latency observables price each rung differently. Any other value is an
	// error wrapping ErrInvalidScenario.
	Transport string
	// TransportDrop adds a per-message transport-level loss probability in
	// [0, 1) on top of the scenario's FaultModel.Drop. Whether the transport
	// drops a message is a function of the seed (salted apart from the
	// scenario's own loss) and of the message — its round, endpoints and
	// kind — so lossy live runs repeat bit-for-bit.
	TransportDrop float64
	// Jitter gives each delivered message a link delay drawn uniform in
	// [0, Jitter) from the seed, spreading the latency distribution; 0 keeps
	// the transport's native latency. The delay runs from the send stamp
	// of the message's round wave: the receiving host handles the message no
	// earlier than that stamp plus the delay, and a round waits for about
	// its largest delay. A message is never handled ahead of one queued
	// before it for the same host, so its measured latency can exceed its
	// delay by such a wait, and the host's timer granularity is a floor
	// under any delay. Outcomes do not depend on Jitter.
	Jitter time.Duration
	// Mailbox is the per-node mailbox capacity: a host goroutine's queue
	// accepts Mailbox unhandled messages per node it serves before sends to it
	// block (backpressure bound); 0 picks the runtime default.
	Mailbox int
}

// LiveReport is the outcome of one RunLive execution: the same detached
// Result a simulator run produces, plus the runtime-layer observables that
// only exist once messages really move — wall-clock convergence time and
// per-message delivery-latency quantiles.
type LiveReport struct {
	// Result is the protocol outcome; with default options it is identical
	// to RunSeed's for the same seed.
	Result Result
	// WallClock is the total execution time.
	WallClock time.Duration
	// Delivered counts the payload messages the transport carried to a
	// handler; per-kind counts split it by message type.
	Delivered                       int64
	Pushes, Votes, Queries, Replies int64
	// Streaming latency quantiles over the delivered payload messages.
	LatencyP50, LatencyP99, LatencyMax time.Duration
}

// RunLive executes the scenario once on the message-passing runtime instead
// of the simulator: every agent is a node with a bounded mailbox, a few host
// goroutines (GOMAXPROCS of them) each serve a contiguous range of nodes, and
// every message crosses the selected transport — an in-process handoff by
// default, a real loopback socket with LiveOptions.Transport. With zero
// options the execution is transcript-equivalent to the simulator — same
// outcome, rounds, and communication metrics for the same seed — so findings
// transfer between the two engines; the report adds the wall-clock and
// latency measurements the simulator cannot make.
//
// RunLive requires a cooperative synchronous scenario: the async scheduler
// and coalition scenarios return an error wrapping ErrInvalidScenario.
// Cancelling ctx stops the run at the next round boundary.
func (r *Runner) RunLive(ctx context.Context, opts LiveOptions) (LiveReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.s.Scheduler == SchedulerAsync {
		return LiveReport{}, invalidf("RunLive requires the synchronous scheduler")
	}
	if r.s.Coalition > 0 {
		return LiveReport{}, invalidf("RunLive does not support coalition scenarios")
	}
	if opts.TransportDrop < 0 || opts.TransportDrop >= 1 {
		return LiveReport{}, invalidf("transport drop probability %v outside [0, 1)", opts.TransportDrop)
	}
	if opts.Jitter < 0 {
		return LiveReport{}, invalidf("negative transport jitter %v", opts.Jitter)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = r.s.Seed
	}
	var conduit runtime.Conduit
	var transport io.Closer
	switch opts.Transport {
	case "", "channel":
		// In-process handoff: nothing to open, nothing to close.
	case "unix", "tcp":
		sc, err := netconduit.Listen(opts.Transport)
		if err != nil {
			return LiveReport{}, err
		}
		conduit, transport = sc, sc
	default:
		return LiveReport{}, invalidf("unknown transport %q (want channel, unix, or tcp)", opts.Transport)
	}
	if opts.TransportDrop > 0 || opts.Jitter > 0 {
		conduit = runtime.NewFaultConduit(conduit, seed, opts.TransportDrop, opts.Jitter)
	}
	// The run borrows pooled agents from the runner's free list. Execute has
	// shut the runtime down by the time it returns — no host is left to touch
	// them — and the report below copies only plain values out of res.
	cfg := r.inner.RunConfig(seed)
	cfg.Pool = r.inner.BorrowPool()
	defer r.inner.ReturnPool(cfg.Pool)
	res, live, err := runtime.Execute(ctx, cfg, runtime.Options{
		Conduit: conduit,
		Mailbox: opts.Mailbox,
	})
	if err != nil {
		if transport != nil {
			// Execute closes the conduit once a Runtime owns it; an error
			// before that point (bad config, cancelled run) must not leak the
			// listener. Close is idempotent, so the overlap is harmless.
			transport.Close() //nolint:errcheck // best-effort teardown
		}
		return LiveReport{}, err
	}
	return LiveReport{
		Result: resultFromInternal(scenario.Result{
			Outcome: res.Outcome,
			Rounds:  res.Rounds,
			Metrics: res.Metrics,
			Good:    res.Good,
			HasGood: true,
		}),
		WallClock:  live.WallClock,
		Delivered:  live.Delivered,
		Pushes:     live.Pushes,
		Votes:      live.Votes,
		Queries:    live.Queries,
		Replies:    live.Replies,
		LatencyP50: live.LatencyP50,
		LatencyP99: live.LatencyP99,
		LatencyMax: live.LatencyMax,
	}, nil
}
