package runtime

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Options selects the transport for one Execute.
type Options struct {
	// Conduit is the transport; nil means ChannelConduit (deterministic,
	// transcript-equivalent to the simulator).
	Conduit Conduit
	// Mailbox is the mailbox capacity per node; 0 means DefaultMailbox.
	Mailbox int
}

// Execute runs one cooperative execution on the message-passing runtime: the
// same core.PrepareRun setup core.Run uses — same agents, same RNG streams,
// same loss key — but with the agents' handlers on the runtime's host
// goroutines and every message crossing the conduit. With the default conduit
// the RunResult and trace transcript are byte-identical to core.Run's for the
// same cfg; on top of them Execute reports the runtime-layer observables
// (wall-clock convergence, delivery-latency quantiles) as a metrics.Live.
//
// Cancelling ctx stops the run at the next round boundary; the partial Live
// report is still returned with the context's error. The host goroutines are
// always torn down before Execute returns, so a caller that lent cfg.Pool may
// reuse it.
func Execute(ctx context.Context, cfg core.RunConfig, opts Options) (core.RunResult, metrics.Live, error) {
	setup, err := core.PrepareRun(cfg)
	if err != nil {
		return core.RunResult{}, metrics.Live{}, err
	}
	rt := New(Config{
		Topology: setup.Net,
		Faulty:   setup.Faulty,
		Faults:   setup.Faults,
		Counters: setup.Counters,
		Trace:    setup.Trace,
		Drop:     setup.Drop,
		DropRand: setup.DropRand,
		Conduit:  opts.Conduit,
		Mailbox:  opts.Mailbox,
	}, setup.Agents)
	start := time.Now()
	rounds, runErr := rt.Run(ctx, setup.MaxRounds)
	rt.Shutdown()
	live := rt.Live(time.Since(start))
	if runErr != nil {
		return core.RunResult{}, live, runErr
	}
	return setup.Result(rounds), live, nil
}
