package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rational"
	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Result is the outcome of one scenario execution, unified across the sync,
// async, and game paths.
type Result struct {
	Outcome core.Outcome
	// Rounds is the synchronous round count, or the tick count under the
	// async scheduler.
	Rounds  int
	Metrics metrics.Snapshot
	// Good is the Definition-2 check; valid only when HasGood (sync
	// cooperative runs).
	Good    core.GoodExecution
	HasGood bool
	// CoalitionColorWon reports whether a coalition member's color won
	// (game runs only).
	CoalitionColorWon bool
	// Agents exposes the honest agents of single sync runs (Run / RunSeed)
	// for deeper inspection. Batched paths (Trials, TrialsInto, Stream) run
	// over pooled per-worker state whose agents are recycled trial to trial,
	// so their Results never carry Agents — everything else in a Result is a
	// plain value and safe to retain.
	Agents []*core.Agent
}

// Runner executes a validated scenario. Construct with NewRunner; a Runner
// is immutable except for Trace, safe to reuse across seeds, and safe for
// concurrent batched calls (each batch worker draws a private run pool from
// the runner's free list).
type Runner struct {
	s       Scenario
	params  core.Params
	net     topo.Topology
	dev     rational.Deviation // nil unless the scenario has a coalition
	members []int

	// Materialized once: every trial of a scenario shares the same colors and
	// fault model, and all three are read-only during runs.
	colors     []core.Color
	faulty     []bool
	sched      gossip.FaultSchedule
	unreliable []bool

	pools *freeList[*core.RunPool] // reusable run-pool free list for batched trials
	dyns  *freeList[topo.Dynamic]  // reusable graph-process free list (dynamic scenarios only)

	// Trace optionally receives engine events on every subsequent run.
	Trace trace.Sink
}

// freeList is a concurrency-safe free list of reusable per-worker run state:
// core.RunPools, and — for dynamic scenarios — private graph-process
// instances (core.Run re-Starts a pooled process from every trial seed, so
// reuse is unobservable). It lives behind a pointer so the Runner value
// stays trivially copyable.
type freeList[T any] struct {
	mu    sync.Mutex
	build func() T
	free  []T
}

func newFreeList[T any](build func() T) *freeList[T] {
	return &freeList[T]{build: build}
}

func (l *freeList[T]) get() T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		l.free = l.free[:n-1]
		return v
	}
	return l.build()
}

func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// NewRunner validates s (after applying defaults) and prepares everything
// shared across its runs: protocol parameters, the (seeded) topology, the
// initial colors, the fault model, the deviation, and the coalition
// placement.
func NewRunner(s Scenario) (*Runner, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	params, err := s.Params()
	if err != nil {
		return nil, err
	}
	net, err := s.BuildTopology()
	if err != nil {
		return nil, err
	}
	r := &Runner{s: s, params: params, net: net,
		pools: newFreeList(func() *core.RunPool { return &core.RunPool{} })}
	if s.Dynamics.Active() {
		r.dyns = newFreeList(s.BuildDynamics)
	}
	r.colors = s.BuildColors()
	r.faulty, r.sched, r.unreliable = s.BuildFaults()
	if s.Coalition > 0 {
		dev, err := rational.DeviationByName(s.Deviation)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		r.dev = dev
		r.members = s.CoalitionMembers()
	}
	return r, nil
}

// MustRunner is NewRunner that panics on error, for tests and examples.
func MustRunner(s Scenario) *Runner {
	r, err := NewRunner(s)
	if err != nil {
		panic(err)
	}
	return r
}

// Scenario returns the defaults-applied scenario the runner executes.
func (r *Runner) Scenario() Scenario { return r.s }

// Params returns the derived protocol parameters.
func (r *Runner) Params() core.Params { return r.params }

// Topology returns the materialized static communication graph. For dynamic
// scenarios this is only the nominal substrate; each run replaces it with a
// private graph-process instance (see runTopology).
func (r *Runner) Topology() topo.Topology { return r.net }

// runTopology returns the communication graph for one unpooled run: the
// shared static graph, or — for dynamic scenarios — a fresh graph-process
// instance, since the process is per-run mutable state. core.Run starts the
// instance from the run seed.
func (r *Runner) runTopology() topo.Topology {
	if r.dyns == nil {
		return r.net
	}
	return r.s.BuildDynamics()
}

// CoalitionMembers returns the deviating agents' IDs (nil for cooperative
// scenarios).
func (r *Runner) CoalitionMembers() []int { return append([]int(nil), r.members...) }

// RunConfig assembles the core-level configuration of one cooperative sync
// execution at the given seed — the hook for callers that need core.Run's
// full result (e.g. the transcript inspector).
func (r *Runner) RunConfig(seed uint64) core.RunConfig {
	faulty, sched, unreliable := r.s.BuildFaults()
	return core.RunConfig{
		Params:     r.params,
		Colors:     r.s.BuildColors(),
		Faulty:     faulty,
		Faults:     sched,
		Unreliable: unreliable,
		Seed:       seed,
		Drop:       r.s.Fault.Drop,
		Topology:   r.runTopology(),
		Workers:    r.s.Workers,
		Trace:      r.Trace,
	}
}

// BorrowPool lends one of the runner's reusable run pools to a caller that
// executes RunConfig itself (the live runtime): set it as RunConfig.Pool and
// hand it back with ReturnPool once nothing touches the run's agents any more.
// Like every pooled run, the result's Agents then alias the pool.
func (r *Runner) BorrowPool() *core.RunPool { return r.pools.get() }

// ReturnPool puts a borrowed pool back on the runner's free list.
func (r *Runner) ReturnPool(pool *core.RunPool) { r.pools.put(pool) }

// GameConfig assembles the rational-layer configuration of one game
// execution at the given seed.
func (r *Runner) GameConfig(seed uint64) rational.GameConfig {
	faulty, _, _ := r.s.BuildFaults()
	return rational.GameConfig{
		Params:    r.params,
		Colors:    r.s.BuildColors(),
		Faulty:    faulty,
		Coalition: append([]int(nil), r.members...),
		Deviation: r.dev,
		Seed:      seed,
		Workers:   r.s.Workers,
		Topology:  r.net,
	}
}

// EquilibriumConfig assembles a paired honest-vs-deviating evaluation
// (Theorem 7) from a coalition scenario: trials runs of each profile with
// the scenario's coalition, deviation, and fault model.
func (r *Runner) EquilibriumConfig(trials int, chi float64) (rational.EquilibriumConfig, error) {
	if r.dev == nil {
		return rational.EquilibriumConfig{}, fmt.Errorf("scenario: %q has no coalition to evaluate", r.s.Name)
	}
	faulty, _, _ := r.s.BuildFaults()
	return rational.EquilibriumConfig{
		Params:    r.params,
		Colors:    r.s.BuildColors(),
		Faulty:    faulty,
		Coalition: append([]int(nil), r.members...),
		Deviation: r.dev,
		Utility:   rational.Utility{Chi: chi},
		Topology:  r.net,
		Trials:    trials,
		Seed:      r.s.Seed,
		Workers:   r.s.Workers,
	}, nil
}

// asyncConfig assembles the sequential-model configuration at a seed.
func (r *Runner) asyncConfig(seed uint64) core.AsyncRunConfig {
	faulty, sched, unreliable := r.s.BuildFaults()
	return core.AsyncRunConfig{
		Params:     r.params,
		Colors:     r.s.BuildColors(),
		Faulty:     faulty,
		Faults:     sched,
		Unreliable: unreliable,
		Seed:       seed,
		MaxTicks:   r.s.MaxTicks,
		Drop:       r.s.Fault.Drop,
		Topology:   r.net,
		Trace:      r.Trace,
	}
}

// Run executes the scenario once at its own seed.
func (r *Runner) Run() (Result, error) { return r.RunSeed(r.s.Seed) }

// RunSeed executes the scenario once at the given seed through the path its
// scheduler and coalition select.
func (r *Runner) RunSeed(seed uint64) (Result, error) {
	switch {
	case r.s.Scheduler == SchedulerAsync:
		res, err := core.RunAsyncResult(r.asyncConfig(seed))
		if err != nil {
			return Result{}, err
		}
		return Result{Outcome: res.Outcome, Rounds: res.Ticks, Metrics: res.Metrics}, nil

	case r.dev != nil:
		res, err := rational.RunGame(r.GameConfig(seed))
		if err != nil {
			return Result{}, err
		}
		return Result{
			Outcome:           res.Outcome,
			Rounds:            r.params.TotalRounds(),
			Metrics:           res.Metrics,
			CoalitionColorWon: res.CoalitionColorWon,
			Agents:            res.HonestAgents,
		}, nil

	default:
		res, err := core.Run(r.RunConfig(seed))
		if err != nil {
			return Result{}, err
		}
		return Result{
			Outcome: res.Outcome,
			Rounds:  res.Rounds,
			Metrics: res.Metrics,
			Good:    res.Good,
			HasGood: true,
			Agents:  res.Agents,
		}, nil
	}
}

// TrialSeeds derives the seeds of a trials-sized Monte-Carlo batch by
// splitting the scenario seed, so distinct scenarios (and distinct sweep
// cells) get collision-free seed sets and results are independent of the
// worker count.
func (r *Runner) TrialSeeds(trials int) []uint64 {
	base := rng.New(r.s.Seed)
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = trialSeed(base, i)
	}
	return seeds
}

// trialSeed derives the seed of trial i without allocating; it equals
// TrialSeeds(i+1)[i].
func trialSeed(base *rng.Source, i int) uint64 {
	var s rng.Source
	base.SplitInto(uint64(i), &s)
	return s.Uint64()
}

// Trials executes a seed-batched Monte-Carlo experiment: trials independent
// runs at split-off seeds, parallelized across the scenario's Workers. The
// per-run engine parallelism is forced to 1 (trial-level parallelism
// dominates and keeps runs deterministic). Results carry no Agents — see
// Result — but are otherwise identical to running RunSeed per trial seed.
func (r *Runner) Trials(trials int) ([]Result, error) {
	out := make([]Result, trials)
	if err := r.TrialsInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// TrialsInto is Trials writing into a caller-owned slice (len(dst) trials),
// so a loop that re-aggregates batches can reuse one buffer. Each worker
// draws a reusable run pool from the runner, so steady-state batches allocate
// almost nothing.
func (r *Runner) TrialsInto(dst []Result) error {
	return r.TrialsIntoContext(context.Background(), dst)
}

// TrialsIntoContext is TrialsInto with cancellation: every batch worker
// checks ctx before each trial, so cancellation stops the batch promptly
// mid-flight regardless of the worker count. A cancelled batch returns an
// error wrapping ctx's error (errors.Is(err, context.Canceled) holds) and
// leaves dst partially written.
func (r *Runner) TrialsIntoContext(ctx context.Context, dst []Result) error {
	return r.runBatch(ctx, rng.New(r.s.Seed), 0, dst, nil)
}

// runBatch executes trials start..start+len(dst) of the scenario's seed
// stream into dst, spread over the scenario's Workers. Per-trial metrics are
// optionally folded into agg, each worker writing its own counter shard.
// Each worker re-checks ctx between trials and abandons its chunk once the
// context is done.
func (r *Runner) runBatch(ctx context.Context, base *rng.Source, start int, dst []Result, agg *metrics.Counters) error {
	if len(dst) == 0 {
		return nil
	}
	pooled := r.dev == nil && r.s.Scheduler != SchedulerAsync
	errs := make([]error, len(dst))
	par.Chunks(r.s.Workers, len(dst), func(worker, lo, hi int) {
		var pool *core.RunPool
		var dyn topo.Dynamic
		if pooled {
			pool = r.pools.get()
			defer r.pools.put(pool)
			if r.dyns != nil {
				dyn = r.dyns.get()
				defer r.dyns.put(dyn)
			}
		}
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			seed := trialSeed(base, start+i)
			if pooled {
				dst[i], errs[i] = r.runPooled(seed, pool, dyn)
			} else {
				serial := *r
				serial.s.Workers = 1
				serial.Trace = nil
				dst[i], errs[i] = serial.RunSeed(seed)
			}
			dst[i].Agents = nil // batched results must not alias pool reuse
			if agg != nil && errs[i] == nil {
				agg.AddDelta(worker, metrics.DeltaOf(dst[i].Metrics))
			}
		}
	})
	// Report a real execution error over a cancellation: the former names
	// the trial that broke, the latter only that the caller gave up.
	var ctxErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			ctxErr = err
		default:
			return err
		}
	}
	if ctxErr != nil {
		return fmt.Errorf("scenario: trials interrupted: %w", ctxErr)
	}
	return nil
}

// runPooled is the cooperative-sync trial path: one core.Run over the
// runner's cached colors/faults and the worker's reusable pool. dyn, when
// non-nil, is the worker's private graph-process instance; core.Run re-Starts
// it from the trial seed, so reuse across trials is unobservable.
func (r *Runner) runPooled(seed uint64, pool *core.RunPool, dyn topo.Dynamic) (Result, error) {
	net := r.net
	if dyn != nil {
		net = dyn
	}
	res, err := core.Run(core.RunConfig{
		Params:     r.params,
		Colors:     r.colors,
		Faulty:     r.faulty,
		Faults:     r.sched,
		Unreliable: r.unreliable,
		Seed:       seed,
		Drop:       r.s.Fault.Drop,
		Topology:   net,
		Workers:    1,
		Pool:       pool,
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Outcome: res.Outcome,
		Rounds:  res.Rounds,
		Metrics: res.Metrics,
		Good:    res.Good,
		HasGood: true,
	}, nil
}

// StreamOptions configures Runner.Stream.
type StreamOptions struct {
	// Trials is the total number of Monte-Carlo trials.
	Trials int
	// Chunk is how many trials are executed (and buffered) at a time; the
	// stream's memory footprint is O(Chunk), independent of Trials. 0 picks a
	// default that keeps every worker busy.
	Chunk int
	// Aggregate optionally accumulates every trial's communication metrics
	// into one sharded Counters: each batch worker writes its own shard, so
	// aggregation never contends, and the merged Snapshot is identical
	// regardless of the worker count.
	Aggregate *metrics.Counters
}

// DefaultStreamChunk is the Stream chunk size when StreamOptions.Chunk is 0.
const DefaultStreamChunk = 256

// Stream executes a bounded-memory Monte-Carlo experiment: exactly
// opts.Trials runs at the same split-off seeds Trials would use, buffered
// opts.Chunk at a time, with observe invoked sequentially in trial order
// (observe may therefore accumulate running statistics without locking).
// The Result passed to observe is only valid during the call — it is reused
// for a later trial — and, like every batched result, carries no Agents.
// Million-trial cells run in memory constant in Trials.
func (r *Runner) Stream(opts StreamOptions, observe func(trial int, res *Result)) error {
	return r.StreamContext(context.Background(), opts, observe)
}

// StreamContext is Stream with cancellation: the batch workers re-check ctx
// between trials, so cancelling stops the stream promptly mid-chunk — no
// further chunks start, observe is not called for the abandoned chunk, and
// the returned error wraps ctx's error (errors.Is(err, context.Canceled)).
func (r *Runner) StreamContext(ctx context.Context, opts StreamOptions, observe func(trial int, res *Result)) error {
	if opts.Trials < 0 {
		return fmt.Errorf("scenario: stream of %d trials", opts.Trials)
	}
	chunk := opts.Chunk
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	if chunk > opts.Trials {
		chunk = opts.Trials
	}
	if chunk == 0 {
		return nil
	}
	buf := make([]Result, chunk)
	base := rng.New(r.s.Seed)
	for start := 0; start < opts.Trials; start += chunk {
		n := chunk
		if rest := opts.Trials - start; n > rest {
			n = rest
		}
		if err := r.runBatch(ctx, base, start, buf[:n], opts.Aggregate); err != nil {
			return err
		}
		if observe != nil {
			for i := range buf[:n] {
				observe(start+i, &buf[i])
			}
		}
	}
	return nil
}
