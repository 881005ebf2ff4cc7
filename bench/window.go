//go:build linux

package main

import (
	"context"
	"fmt"
	"time"
)

const (
	// setupRepeats is R: a run sets its workload up this many times, reports
	// the median of the quiet ones, and measures on the last.
	setupRepeats = 5
	// sliceLength is how long a slice issues ops before it closes with a
	// probe: short enough that a contended spell spoils few slices, long
	// enough that the two ≈5 ms probes stay a small share of the run.
	sliceLength = 200 * time.Millisecond
	// windowStretch caps the measured window at this multiple of its nominal
	// length when quiet slices are short of the floor.
	windowStretch = 1.5
	// minQuietSlices is the fewest quiet slices a median is taken over. A
	// run with fewer reports from all its slices instead; its
	// host.quiet_share says so.
	minQuietSlices = 8
)

// slice is the ops issued between two probes.
type slice struct {
	wallS float64 // first op's start to last op's end
	cpuS  float64 // CPU time of the process under test over the same interval
	ops   []opResult
}

func (s slice) nodeRounds() int64 {
	var total int64
	for _, op := range s.ops {
		total += op.nodeRounds
	}
	return total
}

// setupTiming is one timed set-up with the probes that bracket it.
type setupTiming struct {
	seconds       float64
	before, after float64
}

// window is everything a run measured, before any statistic is taken.
type window struct {
	setups []setupTiming
	probes []float64 // len(slices)+1: slice i ran between probes i and i+1
	slices []slice
	wallS  float64
	rssMB  float64
}

// setUp performs the R timed set-ups of a workload and returns the last
// instance, warm and ready. A set-up is everything between "nothing exists"
// and "the next op runs at steady state": constructing the Runner or
// starting the server and waiting for /healthz, then a fixed count of
// warm-up ops.
func setUp(ctx context.Context, wl workload, env *environment, seed uint64) (instance, []setupTiming, error) {
	var timings []setupTiming
	for r := 0; ; r++ {
		before := probe()
		start := time.Now()
		inst, err := wl.setup(ctx, env, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		for i := 0; i < wl.warmups; i++ {
			for _, res := range inst.op(ctx, i) {
				if res.err != nil {
					inst.close()
					return nil, nil, fmt.Errorf("warm-up op %d: %w", i, res.err)
				}
			}
		}
		seconds := time.Since(start).Seconds()
		timings = append(timings, setupTiming{seconds: seconds, before: before, after: probe()})
		if r == setupRepeats-1 {
			return inst, timings, nil
		}
		inst.close()
	}
}

// measure runs the measured window on a ready instance: slices of
// probe → ops for sliceLength → probe, adjacent slices sharing the probe
// between them, until windowDone says stop.
func measure(ctx context.Context, inst instance, setups []setupTiming, nominal time.Duration, floor int) (window, error) {
	limit := time.Duration(float64(nominal) * windowStretch)
	w := window{setups: setups, probes: []float64{probe()}}
	pid := inst.pid()
	start := time.Now()
	for next := 0; ; {
		cpu0, err := cpuTime(pid)
		if err != nil {
			return w, err
		}
		var s slice
		t0 := time.Now()
		for {
			s.ops = append(s.ops, inst.op(ctx, next)...)
			next++
			if time.Since(t0) >= sliceLength {
				break
			}
		}
		s.wallS = time.Since(t0).Seconds()
		cpu1, err := cpuTime(pid)
		if err != nil {
			return w, err
		}
		s.cpuS = (cpu1 - cpu0).Seconds()
		w.slices = append(w.slices, s)
		w.probes = append(w.probes, probe())
		if err := ctx.Err(); err != nil {
			return w, err
		}
		quiet := countTrue(quietSlices(w.probes, quietLimit(w.allProbes())))
		if windowDone(time.Since(start), nominal, limit, quiet, floor) {
			break
		}
	}
	w.wallS = time.Since(start).Seconds()
	rss, err := peakRSSMB(pid)
	w.rssMB = rss
	return w, err
}

// allProbes is every probe of the run, set-ups included: the fastest of them
// is the reference the quiet limit is taken from.
func (w window) allProbes() []float64 {
	all := append([]float64(nil), w.probes...)
	for _, s := range w.setups {
		all = append(all, s.before, s.after)
	}
	return all
}

// summary is a window reduced to the reported figures.
type summary struct {
	metrics        map[string]float64
	attempted      int
	failed         int
	slices         int
	quietSlices    int
	quietOps       int
	tailPercentile float64
	probeMinMS     float64
	quietSetups    int
}

// summarize takes every timing statistic over quiet slices only. failedMS is
// the latency a failed op is charged — the full window — so that a failure
// counts against the median and the tail instead of vanishing from them.
func (w window) summarize(failedMS float64) summary {
	all := w.allProbes()
	limit := quietLimit(all)
	quiet := quietSlices(w.probes, limit)

	sum := summary{slices: len(w.slices), quietSlices: countTrue(quiet), probeMinMS: minOf(all)}
	if sum.quietSlices < minQuietSlices {
		for i := range quiet {
			quiet[i] = true
		}
	}
	var setups, quietSetups []float64
	for _, s := range w.setups {
		setups = append(setups, s.seconds)
		if s.before <= limit && s.after <= limit {
			quietSetups = append(quietSetups, s.seconds)
		}
	}
	sum.quietSetups = len(quietSetups)
	if len(quietSetups) == 0 {
		quietSetups = setups
	}

	var rates, cpus, latencies []float64
	for i, s := range w.slices {
		for _, op := range s.ops {
			sum.attempted++
			if op.err != nil {
				sum.failed++
			}
		}
		if !quiet[i] {
			continue
		}
		nr := float64(s.nodeRounds())
		if nr > 0 {
			rates = append(rates, nr/s.wallS)
			cpus = append(cpus, s.cpuS*1e6/nr)
		}
		for _, op := range s.ops {
			if op.err != nil {
				latencies = append(latencies, failedMS)
			} else {
				latencies = append(latencies, op.latencyMS)
			}
		}
	}
	sum.quietOps = len(latencies)
	tailMS, percentile := tail(latencies)
	sum.tailPercentile = percentile
	sum.metrics = map[string]float64{
		"setup_s":               median(quietSetups),
		"node_rounds_per_s":     median(rates),
		"op_p50_ms":             median(latencies),
		"op_tail_ms":            tailMS,
		"cpu_us_per_node_round": median(cpus),
		"peak_rss_mb":           w.rssMB,
	}
	return sum
}
