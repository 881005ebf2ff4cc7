//go:build linux

package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/fairgossip"
	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/rng"
	rt "repro/internal/runtime"
	"repro/internal/runtime/netconduit"
	"repro/internal/scenario"
	"repro/internal/topo"
	"repro/internal/trace"
)

// How many of a workload's first ops its ladder replays. Small and fixed:
// a traced run prices layers against each other on identical inputs, it does
// not estimate throughput, and every †-marked count must repeat exactly.
const (
	simLadderOps   = 5
	serveLadderOps = 8
	liveLadderOps  = 2
)

// samples collects per-layer measurements by metric name; a metric's
// reported value is the median of its samples. While muted it drops what it
// is given: a ladder's warm-up pass measures a cold start nobody asked about.
type samples struct {
	values map[string][]float64
	muted  bool
}

func newSamples() *samples { return &samples{values: map[string][]float64{}} }

func (m *samples) add(name string, v float64) {
	if !m.muted {
		m.values[name] = append(m.values[name], v)
	}
}

// set replaces a metric that is a running figure, not a sample to take the
// median of.
func (m *samples) set(name string, v float64) {
	if !m.muted {
		m.values[name] = []float64{v}
	}
}

func (m *samples) median(name string) float64 { return median(m.values[name]) }

// allocsOf reports the heap objects and bytes fn allocated. ReadMemStats
// stops the world, so it is never called inside a timed span.
func allocsOf(fn func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ladderRun is one rung's execution of one op: how long its top span took
// and what it computed, so that rungs can be checked against each other.
type ladderRun struct {
	span time.Duration
	// messages is Σ messages over the op's trials, which every rung that runs
	// the protocol must agree on; -1 for a rung that does not run it.
	messages int64
}

// rungSpec is one rung of a ladder under construction.
type rungSpec struct {
	layer, call string
	run         func(op int) (ladderRun, error)
}

// climb runs ops ops through every rung, bottom first, and reduces each rung
// to its fastest span: a neighbour only ever adds time, and rungs that differ
// by a few percent are only told apart by their best runs. Op 0 is first run
// once through every rung with nothing recorded, so that no rung is charged
// for cold pools and caches. A rung
// whose message count differs from a lower rung's on the same op computed
// something else: that is a failed output check.
func climb(t *tracer, m *samples, workload string, ops int, bottomUp []rungSpec) (l ladder, failed int, err error) {
	spans := make([][]float64, len(bottomUp))
	for op := -1; op < ops; op++ {
		warmup := op < 0
		t.mute(warmup)
		m.muted = warmup
		if warmup {
			for _, spec := range bottomUp {
				if _, err := spec.run(0); err != nil {
					return ladder{}, 0, fmt.Errorf("%s ladder, %s %s, warm-up: %w", workload, spec.layer, spec.call, err)
				}
			}
			continue
		}
		want := int64(-1)
		for r, spec := range bottomUp {
			got, err := spec.run(op)
			if err != nil {
				return ladder{}, 0, fmt.Errorf("%s ladder, %s %s, op %d: %w", workload, spec.layer, spec.call, op, err)
			}
			switch {
			case got.messages < 0:
			case want < 0:
				want = got.messages
			case got.messages != want:
				failed++
			}
			spans[r] = append(spans[r], ms(got.span))
		}
	}
	rungs := make([]rung, len(bottomUp))
	for r, spec := range bottomUp {
		rungs[r] = rung{Layer: spec.layer, Call: spec.call, SpanMS: minOf(spans[r])}
	}
	return newLadder(workload, ops, rungs), failed, nil
}

// --- the simulator rungs, shared by sim-static and serve-dynamic-lossy ------

// byHand executes one run the way core.Run does, with a span around each call
// into core and gossip: PrepareRun → NewEngine → Step × rounds → Result.
// Engine.Run(1) is "stop if every agent has decided, else Step once", which
// is core.Run's loop unrolled.
func byHand(t *tracer, cfg core.RunConfig) (res core.RunResult, prepare, steps, result time.Duration, err error) {
	var setup *core.RunSetup
	prepare = t.span("core.PrepareRun", cfg.Seed, func() { setup, err = core.PrepareRun(cfg) })
	if err != nil {
		return res, 0, 0, 0, err
	}
	var eng *gossip.Engine
	t.span("gossip.NewEngine", cfg.Seed, func() {
		eng = gossip.NewEngine(gossip.Config{
			Topology: setup.Net, Faulty: setup.Faulty, Faults: setup.Faults,
			Counters: setup.Counters, Trace: setup.Trace, Workers: cfg.Workers,
			Drop: setup.Drop, DropRand: setup.DropRand, Mem: setup.Mem(),
		}, setup.Agents)
	})
	rounds := 0
	for rounds < setup.MaxRounds {
		ran := 0
		d := t.span("gossip.Engine.Step", cfg.Seed, func() { ran = eng.Run(1) })
		if ran == 0 {
			break
		}
		steps += d
		rounds++
	}
	result = t.span("core.RunSetup.Result", cfg.Seed, func() { res = setup.Result(rounds) })
	return res, prepare, steps, result, nil
}

// simLadder builds the simulator rungs for ops of trials trials each.
// scenarioOf gives op k's scenario; fresh says whether every op pays for a
// new Runner (a served request does) or reuses a warm one (sim-static does).
// A dynamic scenario gets the topo rung at the bottom, and what that rung
// measured is subtracted from the gossip steps that contain it.
func simLadder(ctx context.Context, t *tracer, m *samples, scenarioOf func(op int) fairgossip.Scenario, trials int, fresh bool) ([]rungSpec, error) {
	first := scenarioOf(0)
	dynamic := first.Dynamics.Active()
	warm, err := bridge.NewRunner(first)
	if err != nil {
		return nil, err
	}
	warmPublic, err := fairgossip.NewRunner(first)
	if err != nil {
		return nil, err
	}
	n := warm.Params().N
	pool := &core.RunPool{}
	buf := make([]scenario.Result, trials)
	succeeded, ran := 0, 0 // over every trial the scenario rung has recorded

	// configs gives the core-level configuration of each trial of op, on the
	// pooled serial path the scenario layer itself uses for batches.
	configs := func(op int) ([]core.RunConfig, error) {
		r := warm
		if fresh {
			var err error
			if r, err = bridge.NewRunner(scenarioOf(op)); err != nil {
				return nil, err
			}
		}
		var cfgs []core.RunConfig
		for _, seed := range r.TrialSeeds(trials) {
			cfg := r.RunConfig(seed)
			cfg.Workers, cfg.Pool = 1, pool
			cfgs = append(cfgs, cfg)
		}
		return cfgs, nil
	}

	var rungs []rungSpec
	advance := map[int]time.Duration{} // per op: Σ topo.Advance over its trials
	if dynamic {
		// The process is replayed on its own from the trial seed — not the
		// salted stream core.Run derives from it, which is core's business —
		// so it is the same law, not the same edge sets.
		rungs = append(rungs, rungSpec{"topo", "EdgeMarkovian.Start + Advance × rounds", func(op int) (ladderRun, error) {
			cfgs, err := configs(op)
			if err != nil {
				return ladderRun{}, err
			}
			out := ladderRun{messages: -1}
			var adv time.Duration
			flips, advances := 0, 0
			for _, cfg := range cfgs {
				dyn := cfg.Topology.(topo.Dynamic)
				out.span += t.span("topo.EdgeMarkovian (by hand)", cfg.Seed, func() {
					d := t.span("topo.EdgeMarkovian.Start", cfg.Seed, func() { dyn.Start(cfg.Seed) })
					m.add("topo.start_ms", ms(d))
					for r := 1; r < cfg.Params.TotalRounds(); r++ {
						adv += t.span("topo.EdgeMarkovian.Advance", cfg.Seed, func() { dyn.Advance(r) })
						flips += dyn.Flips()
						advances++
					}
				})
			}
			advance[op] = adv
			m.add("topo.advance_us_per_round", us(adv)/float64(advances))
			m.add("topo.advance_ns_per_flip", float64(adv)/float64(flips))
			m.add("topo.flips_per_round", float64(flips)/float64(advances))
			return out, nil
		}})
	}

	rungs = append(rungs, rungSpec{"gossip", "Engine.Step × rounds (by hand)", func(op int) (ladderRun, error) {
		cfgs, err := configs(op)
		if err != nil {
			return ladderRun{}, err
		}
		var out ladderRun
		var steps time.Duration
		nodeRounds := 0
		for _, cfg := range cfgs {
			out.span += t.span("core.Run (by hand)", cfg.Seed, func() {
				var res core.RunResult
				var prepare, step, result time.Duration
				if res, prepare, step, result, err = byHand(t, cfg); err != nil {
					return
				}
				steps += step
				out.messages += int64(res.Metrics.Messages)
				nodeRounds += res.Rounds * n
				if dynamic {
					return
				}
				m.add("core.prepare_ms", ms(prepare))
				m.add("core.result_ms", ms(result))
				m.add("gossip.msgs_per_node_round", float64(res.Metrics.Messages)/float64(res.Rounds*n))
				m.add("gossip.bits_per_msg", float64(res.Metrics.Bits)/float64(res.Metrics.Messages))
				m.add("gossip.max_msg_bits", float64(res.Metrics.MaxMessageBits))
			})
			if err != nil {
				return out, err
			}
		}
		if dynamic {
			m.add("gossip.step_lossy_ns_per_node_round", float64(steps-advance[op])/float64(nodeRounds))
		} else {
			m.add("gossip.step_ns_per_node_round", float64(steps)/float64(nodeRounds))
		}
		return out, nil
	}})

	rungs = append(rungs, rungSpec{"core", "Run", func(op int) (ladderRun, error) {
		cfgs, err := configs(op)
		if err != nil {
			return ladderRun{}, err
		}
		var out ladderRun
		nodeRounds := 0
		for _, cfg := range cfgs {
			var res core.RunResult
			out.span += t.span("core.Run", cfg.Seed, func() { res, err = core.Run(cfg) })
			if err != nil {
				return out, err
			}
			out.messages += int64(res.Metrics.Messages)
			nodeRounds += res.Rounds * n
		}
		if !dynamic {
			m.add("core.run_ns_per_node_round", float64(out.span)/float64(nodeRounds))
		}
		return out, nil
	}})

	scenarioCall, publicCall := "Runner.TrialsInto", "Runner.Stream"
	if fresh {
		scenarioCall, publicCall = "NewRunner + Runner.TrialsInto", "Decode + NewRunner + Encode + Runner.Stream"
	}
	rungs = append(rungs, rungSpec{"scenario", scenarioCall, func(op int) (ladderRun, error) {
		var out ladderRun
		var err error
		sc := scenarioOf(op)
		out.span = t.span("scenario: "+scenarioCall, sc.Seed, func() {
			r := warm
			if fresh {
				d := t.span("scenario.NewRunner", sc.Seed, func() { r, err = scenario.NewRunner(bridge.ToInternal(sc)) })
				if err != nil {
					return
				}
				m.add("scenario.new_runner_dynamic_ms", ms(d))
			}
			t.span("scenario.Runner.TrialsInto", sc.Seed, func() { err = r.TrialsInto(buf) })
		})
		if err != nil {
			return out, err
		}
		nodeRounds := 0
		for _, res := range buf {
			out.messages += int64(res.Metrics.Messages)
			nodeRounds += res.Rounds * n
			if !m.muted {
				ran++
				if !res.Outcome.Failed {
					succeeded++
				}
			}
		}
		if dynamic {
			// Where runs fail by design, the share that does not is the
			// scenario layer's useful-outcomes-per-attempt ratio.
			m.set("scenario.success_share", float64(succeeded)/float64(max(ran, 1)))
		} else {
			m.add("scenario.trial_ns_per_node_round", float64(out.span)/float64(nodeRounds))
		}
		return out, nil
	}})

	rungs = append(rungs, rungSpec{"fairgossip", publicCall, func(op int) (ladderRun, error) {
		var out ladderRun
		var err error
		sc := scenarioOf(op)
		stream := func(r *fairgossip.Runner) {
			t.span("fairgossip.Runner.Stream", sc.Seed, func() {
				err = r.Stream(ctx, fairgossip.StreamOptions{Trials: trials}, func(_ int, res fairgossip.Result) {
					out.messages += int64(res.Metrics.Messages)
				})
			})
		}
		if !fresh {
			out.span = t.span("fairgossip: "+publicCall, sc.Seed, func() { stream(warmPublic) })
			return out, err
		}
		doc, err := fairgossip.Encode(sc)
		if err != nil {
			return out, err
		}
		// The calls cmd/serve's handler makes for one request, in its order.
		out.span = t.span("fairgossip: "+publicCall, sc.Seed, func() {
			var decoded fairgossip.Scenario
			d := t.span("fairgossip.Decode", sc.Seed, func() { decoded, err = fairgossip.Decode(doc) })
			if err != nil {
				return
			}
			m.add("fairgossip.decode_us", us(d))
			var r *fairgossip.Runner
			d = t.span("fairgossip.NewRunner", sc.Seed, func() { r, err = fairgossip.NewRunner(decoded) })
			if err != nil {
				return
			}
			m.add("fairgossip.new_runner_ms", ms(d))
			d = t.span("fairgossip.Encode", sc.Seed, func() { _, err = fairgossip.Encode(r.Scenario()) })
			if err != nil {
				return
			}
			m.add("fairgossip.encode_us", us(d))
			stream(r)
		})
		return out, err
	}})
	return rungs, nil
}

// servedRung is the top rung of the serve-dynamic-lossy ladder: the request
// whose work the rungs below replayed in-process, sent to the real server.
func servedRung(ctx context.Context, t *tracer, m *samples, child *serveChild, runSeed uint64, rounds int) rungSpec {
	return rungSpec{"serve", "POST /v1/runs", func(op int) (ladderRun, error) {
		sc := serveScenario(opSeed(runSeed, op))
		body, err := runRequestBody(sc)
		if err != nil {
			return ladderRun{}, err
		}
		var out ladderRun
		var status int
		var data []byte
		out.span = t.span("serve: POST /v1/runs", sc.Seed, func() { status, data, err = child.post(ctx, body) })
		if err != nil {
			return out, err
		}
		if status != http.StatusOK {
			return out, fmt.Errorf("HTTP %d: %s", status, data)
		}
		resp, err := checkRunResponse(sc, rounds, data)
		if err != nil {
			return out, err
		}
		out.messages = int64(resp.MeanMessages*float64(resp.Trials) + 0.5)
		m.add("serve.resp_bytes", float64(resp.stableBytes(data)))
		return out, nil
	}}
}

// lossCounter is a trace sink that counts the messages the loss model ate.
type lossCounter struct{ lost int }

func (c *lossCounter) Emit(e trace.Event) {
	switch e.Note {
	case "lost", "query-lost", "reply-lost":
		c.lost++
	}
}

// simCounts takes the simulator-layer measurements that need a pass of their
// own, outside any timed span: allocation counts (ReadMemStats stops the
// world) and the loss share (needs the engine's own event trace switched on,
// which costs time).
func simCounts(m *samples, static, dynamic fairgossip.Scenario) error {
	r, err := bridge.NewRunner(static)
	if err != nil {
		return err
	}
	seed := r.TrialSeeds(1)[0]
	pool := &core.RunPool{}
	pooled := func() core.RunConfig {
		cfg := r.RunConfig(seed)
		cfg.Workers, cfg.Pool = 1, pool
		return cfg
	}
	res, err := core.Run(pooled()) // warms the pool
	if err != nil {
		return err
	}
	cfg := pooled()
	objects, _ := allocsOf(func() { _, err = core.Run(cfg) })
	if err != nil {
		return err
	}
	m.add("core.allocs_per_run", objects)

	setup, err := core.PrepareRun(pooled())
	if err != nil {
		return err
	}
	eng := gossip.NewEngine(gossip.Config{Topology: setup.Net, Counters: setup.Counters, Workers: 1, Mem: setup.Mem()}, setup.Agents)
	objects, _ = allocsOf(func() { eng.Run(setup.MaxRounds) })
	m.add("gossip.allocs_per_round", objects/float64(res.Rounds))

	buf := make([]scenario.Result, simTrials)
	if err := r.TrialsInto(buf); err != nil { // warms the runner's own pools
		return err
	}
	objects, bytes := allocsOf(func() { err = r.TrialsInto(buf) })
	if err != nil {
		return err
	}
	m.add("scenario.allocs_per_trial", objects/simTrials)
	m.add("scenario.bytes_per_trial", bytes/simTrials)

	start := time.Now()
	if _, err := scenario.NewRunner(bridge.ToInternal(static)); err != nil {
		return err
	}
	m.add("scenario.new_runner_ms", ms(time.Since(start)))

	lossy, err := bridge.NewRunner(dynamic)
	if err != nil {
		return err
	}
	var lost lossCounter
	lcfg := lossy.RunConfig(lossy.TrialSeeds(1)[0])
	lcfg.Workers, lcfg.Trace = 1, &lost
	if res, err = core.Run(lcfg); err != nil {
		return err
	}
	m.add("gossip.lost_share", float64(lost.lost)/float64(res.Metrics.Messages))
	return nil
}

// --- the runtime rungs, shared by live-channel and live-unix-lossy ----------

// countingConduit wraps a conduit and counts the deliveries it reported as
// failed. It keeps the batch seam, so the coordinator drives it exactly as it
// would the conduit inside, and Close, so Shutdown still tears a socket down.
type countingConduit struct {
	inner  rt.BatchConduit
	failed int
}

func (c *countingConduit) Deliver(dst *rt.Node, msg rt.Message) bool {
	ok := c.inner.Deliver(dst, msg)
	if !ok {
		c.failed++
	}
	return ok
}

func (c *countingConduit) NewBatch() rt.Batch { return &countingBatch{c.inner.NewBatch(), c} }

func (c *countingConduit) Close() error {
	if closer, ok := c.inner.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

type countingBatch struct {
	rt.Batch
	c *countingConduit
}

func (b *countingBatch) Flush() []bool {
	oks := b.Batch.Flush()
	b.c.failed += len(oks) - countTrue(oks)
	return oks
}

// liveByHand executes one run the way runtime.Execute does, with a span
// around each call: PrepareRun → (Listen) → New → Run → Shutdown → Result.
// The per-round figures go to the runtime layer over channels and to the
// netconduit layer over a socket, with a _lossy suffix for a lossy scenario
// (whose pull phases take the serial one-Deliver-per-message path).
func liveByHand(ctx context.Context, t *tracer, m *samples, cfg core.RunConfig, transport string) (ladderRun, error) {
	layer, socket := "runtime", transport != "channel"
	if socket {
		layer = "netconduit"
	}
	lossy := ""
	if cfg.Drop > 0 {
		lossy = "_lossy"
	}
	var out ladderRun
	var err error
	out.span = t.span(layer+": New + Run + Shutdown over "+transport+" (by hand)", cfg.Seed, func() {
		var setup *core.RunSetup
		if setup, err = core.PrepareRun(cfg); err != nil {
			return
		}
		conduit := &countingConduit{inner: rt.ChannelConduit{}}
		if socket {
			var sc *netconduit.SocketConduit
			d := t.span("netconduit.Listen", cfg.Seed, func() { sc, err = netconduit.Listen(transport) })
			if err != nil {
				return
			}
			m.add("netconduit.listen_ms", ms(d))
			conduit.inner = sc
		}
		var r *rt.Runtime
		newD := t.span("runtime.New", cfg.Seed, func() {
			r = rt.New(rt.Config{
				Topology: setup.Net, Faulty: setup.Faulty, Faults: setup.Faults,
				Counters: setup.Counters, Trace: setup.Trace,
				Drop: setup.Drop, DropRand: setup.DropRand, Conduit: conduit,
			}, setup.Agents)
		})
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		mallocs, switches := mem.Mallocs, ctxSwitches()
		syscalls, bytes, _ := ioCounts() //nolint:errcheck // reads as 0 where /proc/self/io is unreadable
		rounds := 0
		runD := t.span("runtime.Runtime.Run", cfg.Seed, func() { rounds, err = r.Run(ctx, setup.MaxRounds) })
		switches = ctxSwitches() - switches
		syscalls1, bytes1, _ := ioCounts() //nolint:errcheck // as above
		runtime.ReadMemStats(&mem)
		live := r.Live(runD)
		shutD := t.span("runtime.Runtime.Shutdown", cfg.Seed, r.Shutdown)
		if err != nil || rounds == 0 {
			return
		}
		out.messages = int64(setup.Result(rounds).Metrics.Messages)

		perRound := func(v float64) float64 { return v / float64(rounds) }
		m.add(layer+".round"+lossy+"_us", perRound(us(runD)))
		if socket && lossy != "" {
			m.add("netconduit.failed_deliveries", float64(conduit.failed))
		}
		if lossy != "" {
			return
		}
		m.add(layer+".allocs_per_round", perRound(float64(mem.Mallocs-mallocs)))
		if socket {
			m.add("netconduit.syscalls_per_round", perRound(float64(syscalls1-syscalls)))
			m.add("netconduit.bytes_per_round", perRound(float64(bytes1-bytes)))
			return
		}
		m.add("runtime.new_ms", ms(newD))
		m.add("runtime.shutdown_ms", ms(shutD))
		m.add("runtime.ns_per_node_round", float64(runD)/float64(rounds*cfg.Params.N))
		m.add("runtime.ctx_switches_per_round", perRound(float64(switches)))
		m.add("runtime.delivered_per_round", perRound(float64(live.Delivered)))
		m.add("runtime.msg_latency_p50_us", us(live.LatencyP50))
		m.add("runtime.msg_latency_p99_us", us(live.LatencyP99))
	})
	return out, err
}

// liveLadder builds the runtime rungs of a live workload: the simulator as
// the base, the runtime by hand over channels, then over the socket if the
// workload uses one, and the public RunLive on top.
func liveLadder(ctx context.Context, t *tracer, m *samples, sc fairgossip.Scenario, runSeed uint64, transport string) ([]rungSpec, error) {
	internal, err := bridge.NewRunner(sc)
	if err != nil {
		return nil, err
	}
	public, err := fairgossip.NewRunner(sc)
	if err != nil {
		return nil, err
	}
	config := func(op int) core.RunConfig { return internal.RunConfig(opSeed(runSeed, op)) }
	rungs := []rungSpec{
		{"core", "Run (the simulator, as base)", func(op int) (ladderRun, error) {
			cfg := config(op)
			var res core.RunResult
			var err error
			d := t.span("core.Run", cfg.Seed, func() { res, err = core.Run(cfg) })
			return ladderRun{span: d, messages: int64(res.Metrics.Messages)}, err
		}},
		{"runtime", "New + Run + Shutdown over channels (by hand)", func(op int) (ladderRun, error) {
			return liveByHand(ctx, t, m, config(op), "channel")
		}},
	}
	if transport != "channel" {
		rungs = append(rungs, rungSpec{"netconduit", "Listen + New + Run + Shutdown over " + transport + " (by hand)", func(op int) (ladderRun, error) {
			return liveByHand(ctx, t, m, config(op), transport)
		}})
	}
	return append(rungs, rungSpec{"fairgossip", "Runner.RunLive", func(op int) (ladderRun, error) {
		var rep fairgossip.LiveReport
		var err error
		seed := opSeed(runSeed, op)
		d := t.span("fairgossip.Runner.RunLive", seed, func() {
			rep, err = public.RunLive(ctx, fairgossip.LiveOptions{Seed: seed, Transport: transport})
		})
		return ladderRun{span: d, messages: int64(rep.Result.Metrics.Messages)}, err
	}}), nil
}

// --- layer measurements that no workload's ladder contains -------------------

// netconduitPrimitives prices the socket conduit's two delivery primitives on
// a parked runtime: one blocking Deliver round trip, and one
// NewBatch/Add/Flush wave carrying a message to every node. Round-0 agents
// ignore a vote, so injecting one outside a coordinated round is harmless;
// each node takes at most one message, so the completion events fit the
// runtime's event buffer with no coordinator draining it.
func netconduitPrimitives(t *tracer, m *samples, seed uint64) error {
	const n = simN
	p, err := core.NewParams(n, 2, core.DefaultGamma)
	if err != nil {
		return err
	}
	vote := rt.Message{Kind: rt.MsgVote, From: 1, Payload: core.Vote{P: p, Value: 1}}
	for _, batched := range []bool{false, true} {
		setup, err := core.PrepareRun(core.RunConfig{Params: p, Colors: core.UniformColors(n, 2), Seed: seed})
		if err != nil {
			return err
		}
		r := rt.New(rt.Config{Topology: setup.Net, Counters: setup.Counters}, setup.Agents)
		c, err := netconduit.Listen("unix")
		if err != nil {
			r.Shutdown()
			return err
		}
		failed := 0
		if batched {
			b := c.NewBatch()
			d := t.span("netconduit.Batch.Add × n + Flush", seed, func() {
				for i := 0; i < n; i++ {
					b.Add(r.Node(i), vote)
				}
				failed = n - countTrue(b.Flush())
			})
			m.add("netconduit.batch_us_per_msg", us(d)/n)
		} else {
			const deliveries = n / 2
			if !c.Deliver(r.Node(0), vote) { // dials the loopback connection
				failed++
			}
			d := t.span("netconduit.SocketConduit.Deliver × n/2", seed, func() {
				for i := 1; i <= deliveries; i++ {
					if !c.Deliver(r.Node(i), vote) {
						failed++
					}
				}
			})
			m.add("netconduit.deliver_us", us(d)/deliveries)
		}
		r.Shutdown()
		if err := c.Close(); err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("netconduit: %d deliveries to a parked runtime failed", failed)
		}
	}
	return nil
}

// drawCosts prices the random draws the delivery core makes per message: the
// rng layer's peer-sampling and loss draws, and topo's SamplePeer on the
// dynamic graph.
func drawCosts(t *tracer, m *samples, seed uint64) {
	const draws = 1 << 20
	src := rng.New(seed)
	var sink uint64
	d := t.span("rng.Source.Uint64n × 2^20", seed, func() {
		for i := 0; i < draws; i++ {
			sink += src.Uint64n(simN - 1)
		}
	})
	m.add("rng.uint64n_ns", float64(d)/draws)
	d = t.span("rng.Source.Bool × 2^20", seed, func() {
		for i := 0; i < draws; i++ {
			if src.Bool(serveDrop) {
				sink++
			}
		}
	})
	m.add("rng.bool_ns", float64(d)/draws)

	dyn := bridge.ToInternal(serveScenario(seed)).BuildDynamics()
	dyn.Start(seed)
	d = t.span("topo.EdgeMarkovian.SamplePeer × 2^20", seed, func() {
		for i := 0; i < draws; i++ {
			sink += uint64(dyn.SamplePeer(i%serveN, src))
		}
	})
	m.add("topo.sample_peer_ns", float64(d)/draws)
	probeSink ^= sink
}
