// Package fairgossip is the public, versioned API of the rational fair
// consensus reproduction (Clementi, Gualà, Proietti, Scornavacca, IPDPS
// 2017): declarative scenarios, a strict JSON wire format for them, and
// context-aware execution — single runs, Monte-Carlo batches, and
// bounded-memory streams that cancel promptly mid-batch.
//
// # Scenarios
//
// A Scenario is a complete declarative description of one experiment
// setting: network size, initial-opinion distribution, phase-length
// constant γ, topology, fault model (permanent / crash / churn quiescence
// plus probabilistic per-link message loss), scheduler, optional rational
// coalition, and the master seed. Zero optional fields mean the documented
// defaults; WithDefaults returns the fully effective setting and Validate
// reports the first inconsistency, wrapping ErrInvalidScenario.
//
// The topology itself may evolve: Dynamics turns the communication graph
// into a per-round graph process — every edge an independent birth/death
// Markov chain ("edge-markovian"), or a ring whose edges are re-rewired
// every round ("rewire-ring") — the graph-process analogue of churn. The
// evolution is derived from each run's seed, so dynamic runs are exactly as
// reproducible as static ones; see the Example below.
//
// The protocol itself is an axis too: Protocol selects one of three variants
// that each trade a different part of the paper's binding vote declarations
// for delivery robustness. "live-retarget" re-samples vote targets from the
// current neighbor set at send time (survives edge churn), "retransmit"
// re-pushes every vote TTL times across TTL voting passes with receiver-side
// dedup (pays ≈ TTL/3 more messages), and "relaxed" verifies only MinVotes
// of the q per-voter checks, tolerating bounded violations (survives
// probabilistic message loss). The zero value runs the paper's Algorithm 1
// unchanged.
//
// Named settings live in a process-wide registry: Register stores a
// defaults-applied scenario, Lookup retrieves it (ErrUnknownScenario when
// absent), and the built-in library covers one scenario per experiment axis
// of the reproduction (run Names to list them).
//
// # Wire format
//
// Encode and Decode convert scenarios to and from a flat, versioned JSON
// document:
//
//	{
//	  "version": 1,
//	  "name": "baseline",
//	  "n": 256,
//	  "colors": 2,
//	  ...
//	  "fault": {"kind": "none"},
//	  "scheduler": "sync",
//	  "seed": 1
//	}
//
// The codec is strict — unknown fields, trailing data, and unsupported
// versions are rejected — and normalizing: Encode writes the
// defaults-applied scenario, Decode applies defaults and validates, so
// Decode(Encode(s)) equals s.WithDefaults() for every valid s. The version
// field is this package's compatibility promise: version-1 documents keep
// decoding in every future release; new optional fields may appear, but a
// field's meaning or default never changes within version 1. The "dynamics"
// and "protocol" fields are such additions: static-topology scenarios omit
// the former and baseline-protocol scenarios the latter entirely, so every
// document written before either existed keeps both its meaning and its
// exact byte representation (the golden fixtures pin this).
//
// What the promise covers is the document and the law of its outcomes, not
// the outcome of one seed: a release may re-map which random choices a given
// seed makes, once, when the engine's sampling changes — the dynamic-graph
// engine did for edge sets, and the loss model did when it stopped drawing
// from a stream: whether a message is lost is now a seed-keyed hash of the
// crossing (round, sender, receiver, leg), identical on the simulator and on
// every live transport. For a scenario with "drop" > 0 a given seed therefore
// loses different messages than before that change; loss-free scenarios are
// untouched byte for byte, and every run stays deterministic for its seed.
//
// # Execution
//
// NewRunner validates a scenario and prepares everything its runs share.
// Run and RunSeed execute once; Trials runs a seed-split Monte-Carlo batch
// parallelized across Scenario.Workers; Stream runs an arbitrarily large
// experiment in memory bounded by the chunk size, invoking the observer in
// trial order. All of them take a Context, and the batch workers re-check
// it between trials, so cancelling a million-trial stream stops it promptly
// (the returned error wraps context.Canceled).
//
// Every Result is a detached snapshot of plain values — nothing in it
// aliases the pooled execution state reused between trials, so results are
// always safe to retain. Summary folds results into the aggregate the HTTP
// front end (cmd/serve) reports.
//
// # Simulator vs runtime
//
// Run, Trials, and Stream execute on the round-loop simulator: one
// coordinating loop applies the GOSSIP delivery semantics to plain agent
// state, which is what makes million-trial Monte-Carlo batches cheap.
// RunLive executes the same scenario on a message-passing runtime instead:
// every agent is a node with a bounded mailbox, a few host goroutines each
// serve a contiguous range of nodes, and every push, vote, query, and reply
// crosses an in-process transport. The two
// engines are transcript-equivalent — under RunLive's default options the
// runtime replays the simulator's execution event for event, so
// LiveReport.Result is identical to RunSeed's for the same seed and findings
// transfer between engines. What RunLive adds is the physical layer the
// simulator only counts: wall-clock convergence time, per-message delivery
// latency quantiles (p50/p99/max), and optional transport-level fault
// injection (seed-deterministic per-message drop and latency jitter) below
// the protocol's own fault model. That layer costs about 2× the simulator's
// wall-clock over the channel transport (experiment table E15: 2.0× at
// n=1024 and at n=4096, medians of 10 runs on a 2-core host) and about
// 5.5× more over a socket (E16). Use the simulator for statistics, RunLive
// for measurements; see ExampleScenario_runtime.
//
// The transport itself is a ladder, climbed one rung at a time without
// touching the protocol. LiveOptions.Transport selects the rung: "channel"
// (the default) hands each message straight to the destination mailbox;
// TransportDrop and Jitter wrap any rung in seed-deterministic fault
// injection; "unix" and "tcp" carry every delivery across a real OS socket
// as length-prefixed binary frames. Because the protocol's correctness
// barrier is the round, not the message, the scheduler dispatches each
// round's deliveries as pipelined waves — lossy rounds and fault-injected
// rungs included; there is no per-message path, and a jittered message
// carries its delay in the wave for the receiving host to honour — and the
// socket rungs
// coalesce all same-peer messages of a wave into one multi-message frame
// answered by a single bitmap ack — a handful of syscalls per round instead
// of a synchronous write→ack round trip per message, with per-destination
// delivery order preserved and all results settled at the round barrier.
// Every rung is transcript-equivalent (the E16 experiment table checks it
// while pricing each rung's wall-clock and latency cost); only the
// observables change.
//
// The implementation lives under internal/; this package is the supported
// surface, and none of its exported signatures mention internal types.
package fairgossip
