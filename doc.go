// Package repro is a from-scratch Go implementation of "Rational Fair
// Consensus in the GOSSIP Model" (Clementi, Gualà, Proietti, Scornavacca,
// 2017): a randomized GOSSIP protocol that reaches fair consensus on the
// complete graph in O(log n) rounds with O(log² n)-bit messages, tolerates
// any constant fraction of worst-case permanent faults, and is a whp
// t-strong equilibrium against coalitions of t = o(n/log n) rational agents.
//
// # Public API
//
// The supported surface is the fairgossip package — a versioned, public
// re-export of the scenario layer. It offers the declarative Scenario type
// (network size, initial-opinion distribution, γ, topology — static or a
// per-round evolving graph process via Dynamics, protocol variant via
// Protocol — live-retarget, TTL retransmission, or relaxed k-of-q
// verification, each trading part of the binding declarations for delivery
// robustness, fault model including probabilistic message loss, scheduler,
// coalition, seed), a
// strict version-1 JSON wire format (Encode / Decode, with the invariant
// Decode(Encode(s)) == s.WithDefaults()), a registry of named settings, a
// typed error taxonomy (ErrInvalidScenario, ErrUnknownScenario, wrapped
// context errors), and context-aware execution: Runner.Run, Trials, and
// Stream all take a Context and cancel promptly mid-batch. Results are
// detached snapshots of plain values that never alias pooled memory.
// fairgossip's exported signatures mention no internal types; everything
// under internal/ remains free to change.
//
// cmd/serve is the API's first external consumer: an HTTP front end whose
// POST /v1/runs takes scenario JSON (or a registered name) plus a trial
// count and returns the aggregate summary, with the request context
// cancelling abandoned batches.
//
// # Internal architecture
//
// The implementation lives under internal/, organized as three layers:
//
// Engine layer. internal/gossip holds one Executor implementing the GOSSIP
// delivery semantics (push/pull, self-op short-circuiting, fault silence,
// probabilistic per-message loss, trace emission, bit accounting) exactly
// once — decide an operation, carry it, settle it — with two thin schedulers
// over it: the synchronous Engine and the sequential (one random agent per
// tick) AsyncEngine, both carrying by direct call. Fault models are
// pluggable FaultSchedules — permanent quiescence, crash-at-round-r,
// periodic churn — and the orthogonal Drop rate loses any message crossing
// a link with fixed probability, decided per crossing by a seed-keyed hash of
// (round, sender, receiver, leg) rather than drawn from a stream. Topologies may
// themselves be dynamic: a topo.Dynamic graph process (edge-Markovian
// chains, the per-round rewiring ring, a per-round re-matched random
// d-regular graph, a geometric torus under positional jitter) is started
// from the run seed and advanced by the engine at every round boundary, so
// partner selection and delivery validation always read the round's live
// edge set. The edge-Markovian engine is sparse end to end — geometric
// skip-sampling draws exactly the edges that flip, the adjacency updates
// incrementally, and membership is an O(present-edges) hash set over packed
// pair ids rather than an n²/8 presence bitset — so a round costs O(flips),
// memory costs O(edges), and churn experiments scale to n = 2²⁰ (E13 sweeps
// n ∈ {10⁵, 10⁶} at fixed degree).
//
// Protocol layer. internal/core is Protocol P and its sequential-model
// adaptation, including the three protocol variants (core.Protocol): send-
// time vote retargeting, a Passes-times-repeated Voting schedule with
// receiver-side (voter, slot) dedup, and violation-counting relaxed
// verification — all threaded through Params so the schedule arithmetic
// (TotalRounds, PhaseOf) stays in one place. internal/rational adds
// utilities, coalitions, and the deviation library; internal/baseline holds
// the LOCAL-model election, HP polling, and naive ablation comparators.
//
// Runtime layer. internal/runtime is the message-passing counterpart of the
// engine layer: every node has a typed bounded mailbox (backpressure by
// blocking send), GOMAXPROCS host goroutines each drain the mailboxes of one
// contiguous range of nodes from a single queue, and deliveries cross a
// pluggable Conduit — the deterministic in-process channel transport, or a
// fault-injecting wrapper adding seed-derived per-message drop and latency
// jitter below the protocol's own fault model. A round-barrier coordinator
// drives the nodes in lockstep through the same core.PrepareRun state the
// simulator uses and is the Executor's third client: it takes every decision
// (validation, keyed loss, silence) from it, hands every outcome back to the
// same settlement (accounting, trace), and carries only the deliveries itself
// — every phase of a round goes out as one pipelined delivery wave, on every
// transport — so the runtime is transcript-equivalent to the simulator:
// byte-identical trace transcripts and identical results for the same seed
// (pinned across every builtin scenario, including dynamic graphs and all
// three protocol variants). What it adds is what simulation cannot measure —
// wall-clock convergence and streaming per-message latency quantiles
// (metrics.Live, stats.QuantileSketch) — surfaced publicly as
// fairgossip.RunLive, `fairconsensus -runtime`, and the E15 table. The
// coordinator and the hosts meet at a lock-free barrier (node-owned result
// slots and one atomic completion counter a host bumps once per drained
// batch; nothing is shared between hosts), which holds the price of real
// message passing to about 2× the simulator's wall-clock: E15 reads 2.0× at
// n=1024 and at n=4096 (medians of 10 trials on a 2-core host).
//
// Scenario layer. internal/scenario is the execution home of the
// declarative front door fairgossip re-exports: the Scenario struct, the
// registry (scenarios are stored defaults-applied at Register time), and
// the Runner with single runs, pooled Monte-Carlo batches, and
// bounded-memory streams (TrialsIntoContext / StreamContext carry the
// cancellation the public API exposes). internal/bridge converts public
// scenarios to internal ones for tools that need full-state access (the
// inspector's agent transcripts, trace sinks, the equilibrium evaluator).
//
// Performance model. The Monte-Carlo hot path is pooled and (nearly)
// allocation-free at steady state: published payloads are immutable, so the
// Find-Min adopt path passes certificate pointers instead of deep-copying;
// agents, their RNG streams (rng.Source.SplitInto), commitment logs, and the
// engine's per-round buffers live in per-worker core.RunPools that batched
// runs reset between trials; and metrics.Counters is sharded into padded
// per-worker cells merged at Snapshot time. Ownership rule: batched results
// carry plain values only, and the public Result type makes that structural
// (no reference fields at all). Allocation-budget tests pin the steady
// state, and CI gates six benchmark rows against the committed
// BENCH_BASELINE.json via cmd/benchdiff: ScenarioRunnerBatch/workers=1,
// DynamicScenarioBatch/workers=1, SimStaticStream/n=1024,
// EdgeMarkovianAdvance/n=16384/death=0.001, RuntimeRound/n=1024 and
// SocketConduitRound/n=1024.
//
// Supporting substrates: internal/sim (experiment tables T0–T8, E9–E16,
// built on the public API), internal/topo (static graphs and dynamic
// graph processes), internal/rng (splittable
// xoshiro256**), internal/stats (streaming Welford moments, counting-
// histogram medians, exponential-bucket quantile sketches), internal/metrics,
// internal/par, internal/trace.
//
// Entry points: cmd/serve (HTTP front end), cmd/fairconsensus (single runs;
// -scenario by name, -scenario-json documents, -dump-scenario canonical
// JSON), cmd/experiments (regenerate every table/figure, or Monte-Carlo one
// scenario), cmd/sweep (CSV scaling sweeps; SIGINT cancels mid-cell),
// cmd/inspect (per-agent transcripts), cmd/benchdiff (benchmark regression
// gate), and the runnable walkthroughs under examples/ — all built on
// fairgossip. The root bench_test.go holds one benchmark per experiment
// artifact plus the scenario batch baseline.
package repro
