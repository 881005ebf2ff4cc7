//go:build linux

package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/fairgossip"
)

// opResult is one checked operation of a workload.
type opResult struct {
	latencyMS  float64
	nodeRounds int64 // Σ over the op's trials of rounds × n
	err        error // a failed output check; nil when the op is correct
}

// instance is one set-up of a workload, ready to be measured.
type instance interface {
	// op runs operation i and checks what can be checked cheaply. It may
	// return several results when the workload issues requests in waves.
	op(ctx context.Context, i int) []opResult
	// pid names the process under test, whose CPU time and RSS are reported.
	pid() int
	// verify runs the expensive checks op deferred (simulator replays) and
	// returns one error per op that failed them. It runs after the measured
	// window, so it costs the timed path nothing.
	verify(ctx context.Context) []error
	close()
}

// workload describes one of the four workloads. The names are referred to by
// later issues and by BENCHMARK.json; the reasons are spelt out in README.md.
type workload struct {
	name string
	// quietFloor is how many quiet slices the window must hold before it may
	// stop at its nominal length.
	quietFloor int
	// warmups is the fixed number of ops a set-up runs before it counts as
	// ready, so pools are warm and lazy initialisation is done.
	warmups int
	setup   func(ctx context.Context, env *environment, seed uint64) (instance, error)
}

var workloads = []workload{
	{name: "sim-static", quietFloor: 40, warmups: 2, setup: newSimStatic},
	{name: "serve-dynamic-lossy", quietFloor: 40, warmups: 8, setup: newServeDynamicLossy},
	{name: "live-channel", quietFloor: 25, warmups: 1, setup: newLiveChannel},
	{name: "live-unix-lossy", quietFloor: 25, warmups: 1, setup: newLiveUnixLossy},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSeed derives the seed of operation i from the run seed with a splitmix64
// finaliser of the benchmark's own: the inputs must not change when the
// repo's rng package does. Seeds are never 0, which the public API reads as
// "use the scenario's seed".
func opSeed(seed uint64, i int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}

// checkResult is the output check every workload shares: the run terminated
// within the protocol's round bound and, when it succeeded, decided on a
// color some agent started with.
func checkResult(res fairgossip.Result, p fairgossip.Params) error {
	if res.Rounds < 1 || res.Rounds > p.Rounds {
		return fmt.Errorf("%d rounds, bound %d", res.Rounds, p.Rounds)
	}
	if !res.Failed && (res.Color < 0 || res.Color >= p.Colors) {
		return fmt.Errorf("winner %d is not an initial color", res.Color)
	}
	return nil
}

// --- sim-static ------------------------------------------------------------

const (
	simN      = 1024
	simTrials = 4
)

func simScenario(seed uint64) fairgossip.Scenario {
	return fairgossip.Scenario{N: simN, Colors: 2, Seed: seed, Workers: 1}
}

// simStatic streams simTrials trials per op through one reused Runner, so
// the per-worker pools are warm. A Runner's trial seeds are a function of its
// scenario seed, so every op of a run repeats the same trials — a
// homogeneous op stream is what a median wants — and the run seed picks
// which trials those are.
type simStatic struct {
	r *fairgossip.Runner
}

func newSimStatic(_ context.Context, _ *environment, seed uint64) (instance, error) {
	r, err := fairgossip.NewRunner(simScenario(seed))
	if err != nil {
		return nil, err
	}
	return &simStatic{r: r}, nil
}

func (s *simStatic) op(ctx context.Context, _ int) []opResult {
	p := s.r.Params()
	var out opResult
	start := time.Now()
	err := s.r.Stream(ctx, fairgossip.StreamOptions{Trials: simTrials}, func(_ int, res fairgossip.Result) {
		out.nodeRounds += int64(res.Rounds) * int64(p.N)
		if res.Failed {
			out.err = fmt.Errorf("fault-free trial failed: %v", res)
		} else if err := checkResult(res, p); err != nil {
			out.err = err
		}
	})
	out.latencyMS = ms(time.Since(start))
	if err != nil {
		out.err = err
	}
	return []opResult{out}
}

func (s *simStatic) pid() int                       { return os.Getpid() }
func (s *simStatic) verify(context.Context) []error { return nil }
func (s *simStatic) close()                         {}

// --- live-channel and live-unix-lossy --------------------------------------

const liveLossyN = 256

// live runs one RunLive per op and defers the comparison with the simulator.
type live struct {
	r    *fairgossip.Runner
	seed uint64
	opts fairgossip.LiveOptions
	// deliveriesEvery > 0 additionally replays every that-many-th op over the
	// channel transport, which cannot lose a frame, and requires the same
	// delivery counts: a socket delivery that failed would show as a
	// difference.
	deliveriesEvery int
	done            []liveOp
}

type liveOp struct {
	i      int
	report fairgossip.LiveReport
}

func newLiveChannel(_ context.Context, _ *environment, seed uint64) (instance, error) {
	r, err := fairgossip.NewRunner(simScenario(seed))
	if err != nil {
		return nil, err
	}
	return &live{r: r, seed: seed}, nil
}

// liveLossyScenario is the relaxed variant with MinVotes = Q−4: under 2 %
// loss the baseline protocol fails most runs, and a failed run is a poor
// thing to check; k-of-q verification succeeds and stays comparable with the
// simulator field for field.
func liveLossyScenario(seed uint64) (fairgossip.Scenario, error) {
	plain, err := fairgossip.NewRunner(fairgossip.Scenario{N: liveLossyN})
	if err != nil {
		return fairgossip.Scenario{}, err
	}
	return fairgossip.Scenario{
		N: liveLossyN, Colors: 2, Seed: seed, Workers: 1,
		Fault:    fairgossip.FaultModel{Drop: 0.02},
		Protocol: fairgossip.Protocol{Variant: fairgossip.ProtocolRelaxed, MinVotes: plain.Params().Q - 4},
	}, nil
}

func newLiveUnixLossy(_ context.Context, _ *environment, seed uint64) (instance, error) {
	sc, err := liveLossyScenario(seed)
	if err != nil {
		return nil, err
	}
	r, err := fairgossip.NewRunner(sc)
	if err != nil {
		return nil, err
	}
	return &live{r: r, seed: seed, opts: fairgossip.LiveOptions{Transport: "unix"}, deliveriesEvery: 8}, nil
}

func (l *live) op(ctx context.Context, i int) []opResult {
	opts := l.opts
	opts.Seed = opSeed(l.seed, i)
	start := time.Now()
	rep, err := l.r.RunLive(ctx, opts)
	out := opResult{latencyMS: ms(time.Since(start)), err: err}
	if err == nil {
		out.nodeRounds = int64(rep.Result.Rounds) * int64(l.r.Params().N)
		out.err = checkResult(rep.Result, l.r.Params())
		l.done = append(l.done, liveOp{i: i, report: rep})
	}
	return []opResult{out}
}

func (l *live) pid() int { return os.Getpid() }

func (l *live) verify(ctx context.Context) []error {
	var errs []error
	for _, op := range l.done {
		seed := opSeed(l.seed, op.i)
		want, err := l.r.RunSeed(ctx, seed)
		switch {
		case err != nil:
			errs = append(errs, err)
			continue
		case want != op.report.Result:
			errs = append(errs, fmt.Errorf("op %d (seed %d): live %+v, simulator %+v", op.i, seed, op.report.Result, want))
			continue
		}
		if l.deliveriesEvery == 0 || op.i%l.deliveriesEvery != 0 {
			continue
		}
		ref, err := l.r.RunLive(ctx, fairgossip.LiveOptions{Seed: seed})
		if err != nil {
			errs = append(errs, err)
		} else if got := op.report; got.Delivered != ref.Delivered || got.Pushes != ref.Pushes ||
			got.Votes != ref.Votes || got.Queries != ref.Queries || got.Replies != ref.Replies {
			errs = append(errs, fmt.Errorf("op %d (seed %d): %d deliveries over the socket, %d over channels",
				op.i, seed, got.Delivered, ref.Delivered))
		}
	}
	l.done = l.done[:0]
	return errs
}

func (l *live) close() {}
