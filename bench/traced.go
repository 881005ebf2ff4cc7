//go:build linux

package main

import (
	"context"
	"fmt"
	"time"

	"repro/fairgossip"
	"repro/internal/bridge"
)

// perLayer lists every per-layer metric a traced run reports, as
// <layer>.<name>. None is gated. A † in README.md marks the counts that must
// repeat exactly for a fixed seed; the README also says which end-to-end
// metric, on which workload, each one is expected to move.
var perLayer = []metricSpec{
	{name: "rng.uint64n_ns", unit: "ns"},
	{name: "rng.bool_ns", unit: "ns"},

	{name: "topo.start_ms", unit: "ms"},
	{name: "topo.advance_us_per_round", unit: "us"},
	{name: "topo.advance_ns_per_flip", unit: "ns"},
	{name: "topo.flips_per_round", unit: "count"},
	{name: "topo.sample_peer_ns", unit: "ns"},

	{name: "gossip.step_ns_per_node_round", unit: "ns"},
	{name: "gossip.step_lossy_ns_per_node_round", unit: "ns"},
	{name: "gossip.allocs_per_round", unit: "count"},
	{name: "gossip.msgs_per_node_round", unit: "count"},
	{name: "gossip.bits_per_msg", unit: "bits"},
	{name: "gossip.max_msg_bits", unit: "bits"},
	{name: "gossip.lost_share", unit: "share"},

	{name: "core.prepare_ms", unit: "ms"},
	{name: "core.result_ms", unit: "ms"},
	{name: "core.run_ns_per_node_round", unit: "ns"},
	{name: "core.allocs_per_run", unit: "count"},

	{name: "scenario.new_runner_ms", unit: "ms"},
	{name: "scenario.new_runner_dynamic_ms", unit: "ms"},
	{name: "scenario.trial_ns_per_node_round", unit: "ns"},
	{name: "scenario.allocs_per_trial", unit: "count"},
	{name: "scenario.bytes_per_trial", unit: "bytes"},
	{name: "scenario.success_share", unit: "share", higher: true},

	{name: "runtime.new_ms", unit: "ms"},
	{name: "runtime.shutdown_ms", unit: "ms"},
	{name: "runtime.round_us", unit: "us"},
	{name: "runtime.ns_per_node_round", unit: "ns"},
	{name: "runtime.round_lossy_us", unit: "us"},
	{name: "runtime.ctx_switches_per_round", unit: "count"},
	{name: "runtime.delivered_per_round", unit: "count"},
	{name: "runtime.allocs_per_round", unit: "count"},
	{name: "runtime.msg_latency_p50_us", unit: "us"},
	{name: "runtime.msg_latency_p99_us", unit: "us"},
	{name: "runtime.vs_sim_ratio", unit: "ratio"},

	{name: "netconduit.listen_ms", unit: "ms"},
	{name: "netconduit.deliver_us", unit: "us"},
	{name: "netconduit.batch_us_per_msg", unit: "us"},
	{name: "netconduit.round_us", unit: "us"},
	{name: "netconduit.round_lossy_us", unit: "us"},
	{name: "netconduit.syscalls_per_round", unit: "count"},
	{name: "netconduit.bytes_per_round", unit: "bytes"},
	{name: "netconduit.allocs_per_round", unit: "count"},
	{name: "netconduit.failed_deliveries", unit: "count"},
	{name: "netconduit.vs_channel_ratio", unit: "ratio"},

	{name: "fairgossip.decode_us", unit: "us"},
	{name: "fairgossip.encode_us", unit: "us"},
	{name: "fairgossip.new_runner_ms", unit: "ms"},
	{name: "fairgossip.stream_overhead_share", unit: "share"},

	{name: "serve.healthz_us", unit: "us"},
	{name: "serve.request_overhead_us", unit: "us"},
	{name: "serve.req_per_s", unit: "1/s", higher: true},
	{name: "serve.resp_bytes", unit: "bytes"},
	{name: "serve.non_2xx", unit: "count"},

	{name: "host.probe_min_ms", unit: "ms"},
	{name: "host.quiet_share", unit: "share", higher: true},
	{name: "host.window_s", unit: "s"},
	{name: "host.build_s", unit: "s"},
	{name: "host.trace_overhead_share", unit: "share"},
}

// span of one rung of a ladder, by layer; 0 when the ladder has no such rung.
func (l ladder) spanOf(layer string) float64 {
	for _, r := range l.Rungs {
		if r.Layer == layer {
			return r.SpanMS
		}
	}
	return 0
}

func (l ladder) spanSum() float64 {
	total := 0.0
	for _, r := range l.Rungs {
		total += r.SpanMS
	}
	return total
}

// runTraced is the traced run. It replays the first ops of every workload as
// a ladder — not only the workload named on the command line, because a
// traced run reports every per-layer metric and the layers are spread over
// the four ladders — then takes the measurements no ladder contains. The
// named workload's ladder is additionally replayed with tracing off; the
// difference is host.trace_overhead_share.
func runTraced(ctx context.Context, wl workload, env *environment, rep *report) error {
	start := time.Now()
	seed := rep.Seed
	m := newSamples()

	child, err := startServe(ctx, env.serveBin)
	if err != nil {
		return err
	}
	defer child.stop()
	served, err := fairgossip.NewRunner(serveScenario(seed))
	if err != nil {
		return err
	}
	lossy, err := liveLossyScenario(seed)
	if err != nil {
		return err
	}

	ladders := []struct {
		name  string
		ops   int
		build func(t *tracer, m *samples) ([]rungSpec, error)
	}{
		{"sim-static", simLadderOps, func(t *tracer, m *samples) ([]rungSpec, error) {
			return simLadder(ctx, t, m, func(int) fairgossip.Scenario { return simScenario(seed) }, simTrials, false)
		}},
		{"serve-dynamic-lossy", serveLadderOps, func(t *tracer, m *samples) ([]rungSpec, error) {
			rungs, err := simLadder(ctx, t, m, func(op int) fairgossip.Scenario { return serveScenario(opSeed(seed, op)) }, serveTrials, true)
			return append(rungs, servedRung(ctx, t, m, child, seed, served.Params().Rounds)), err
		}},
		{"live-channel", liveLadderOps, func(t *tracer, m *samples) ([]rungSpec, error) {
			return liveLadder(ctx, t, m, simScenario(seed), seed, "channel")
		}},
		{"live-unix-lossy", liveLadderOps, func(t *tracer, m *samples) ([]rungSpec, error) {
			return liveLadder(ctx, t, m, lossy, seed, "unix")
		}},
	}
	byName := map[string]ladder{}
	probes := []float64{probe()}
	overhead := 0.0
	for _, spec := range ladders {
		t := newTracer()
		rungs, err := spec.build(t, m)
		if err != nil {
			return err
		}
		l, failed, err := climb(t, m, spec.name, spec.ops, rungs)
		if err != nil {
			return err
		}
		l.Calls = callSelfTimes(t.spans, spec.ops)
		if err := t.write(spec.name); err != nil {
			return err
		}
		probes = append(probes, probe())
		rep.Ladders = append(rep.Ladders, l)
		byName[spec.name] = l
		rep.Result.Attempted += spec.ops
		rep.Result.Failed += failed
		if failed > 0 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s ladder: %d rungs disagreed with the rung below on the messages of an op", spec.name, failed))
		}
		if spec.name != wl.name {
			continue
		}
		discard := newSamples()
		if rungs, err = spec.build(nil, discard); err != nil {
			return err
		}
		untraced, _, err := climb(nil, discard, spec.name, spec.ops, rungs)
		if err != nil {
			return err
		}
		overhead = (l.spanSum() - untraced.spanSum()) / untraced.spanSum()
		probes = append(probes, probe())
	}

	// What no ladder contains: primitive costs, counts that need an untimed
	// pass, the clean socket round, and the HTTP floor.
	t := newTracer()
	drawCosts(t, m, seed)
	if err := simCounts(m, simScenario(seed), serveScenario(seed)); err != nil {
		return err
	}
	if err := netconduitPrimitives(t, m, seed); err != nil {
		return err
	}
	clean, err := bridge.NewRunner(simScenario(seed))
	if err != nil {
		return err
	}
	for op := 0; op < liveLadderOps; op++ {
		if _, err := liveByHand(ctx, t, m, clean.RunConfig(opSeed(seed, op)), "unix"); err != nil {
			return err
		}
	}
	for i := 0; i < 64; i++ {
		var d time.Duration
		t.span("serve: GET /healthz", seed, func() { d, err = child.healthz(ctx) })
		if err != nil {
			return err
		}
		m.add("serve.healthz_us", us(d))
	}
	const waves = 16
	load := &serveDynamicLossy{child: child, seed: seed, rounds: served.Params().Rounds}
	loadStart := time.Now()
	for wave := 0; wave < waves; wave++ {
		for _, res := range load.op(ctx, wave) {
			rep.Result.Attempted++
			if res.err != nil {
				rep.Result.Failed++
				rep.Errors = append(rep.Errors, res.err.Error())
			}
		}
	}
	m.add("serve.req_per_s", waves*serveClients/time.Since(loadStart).Seconds())
	for _, err := range load.verify(ctx) {
		rep.Result.Failed++
		rep.Errors = append(rep.Errors, err.Error())
	}
	if err := t.write("layers"); err != nil {
		return err
	}
	probes = append(probes, probe())

	m.set("serve.non_2xx", float64(load.non2xx))
	m.add("runtime.vs_sim_ratio", m.median("runtime.ns_per_node_round")/m.median("gossip.step_ns_per_node_round"))
	m.add("netconduit.vs_channel_ratio", m.median("netconduit.round_lossy_us")/m.median("runtime.round_lossy_us"))
	static, dynamic := byName["sim-static"], byName["serve-dynamic-lossy"]
	m.add("fairgossip.stream_overhead_share", (static.spanOf("fairgossip")-static.spanOf("scenario"))/static.spanOf("scenario"))
	m.add("serve.request_overhead_us", 1000*(dynamic.spanOf("serve")-dynamic.spanOf("fairgossip")))
	m.add("host.probe_min_ms", minOf(probes))
	quiet := quietSlices(probes, quietLimit(probes))
	m.add("host.quiet_share", float64(countTrue(quiet))/float64(len(quiet)))
	m.add("host.build_s", env.buildS)
	m.add("host.trace_overhead_share", overhead)
	m.add("host.window_s", time.Since(start).Seconds())

	rep.Result.Metrics = map[string]metricValue{}
	for _, spec := range perLayer {
		if len(m.values[spec.name]) == 0 {
			return fmt.Errorf("traced run measured nothing for %s", spec.name)
		}
		rep.Result.Metrics[spec.name] = metricValue{m.median(spec.name), spec.unit}
	}
	return nil
}
