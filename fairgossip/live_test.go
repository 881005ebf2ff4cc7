package fairgossip_test

import (
	"context"
	"errors"
	stdruntime "runtime"
	"testing"
	"time"

	"repro/fairgossip"
)

// TestRunLiveMatchesSimulator pins the public half of the equivalence
// contract: with zero options, RunLive's Result is identical to RunSeed's for
// the same scenario and seed.
func TestRunLiveMatchesSimulator(t *testing.T) {
	for _, name := range []string{"baseline", "edge-markovian", "relaxed-geometric"} {
		sc, err := fairgossip.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		r := fairgossip.MustRunner(sc)
		sim, err := r.RunSeed(context.Background(), sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.RunLive(context.Background(), fairgossip.LiveOptions{})
		if err != nil {
			t.Fatalf("RunLive(%s): %v", name, err)
		}
		if rep.Result != sim {
			t.Fatalf("%s: live result %+v diverged from simulator %+v", name, rep.Result, sim)
		}
		if rep.WallClock <= 0 || rep.Delivered == 0 {
			t.Fatalf("%s: live observables missing: %+v", name, rep)
		}
	}
}

// TestRunLiveRejectsUnsupported pins the scenario gate: async scheduling and
// coalition runs have no runtime mapping and must fail as invalid scenarios.
func TestRunLiveRejectsUnsupported(t *testing.T) {
	async := fairgossip.Scenario{N: 32, Colors: 2, Seed: 1, Scheduler: fairgossip.SchedulerAsync}
	if _, err := fairgossip.MustRunner(async).RunLive(context.Background(), fairgossip.LiveOptions{}); !errors.Is(err, fairgossip.ErrInvalidScenario) {
		t.Fatalf("async scenario: err = %v, want ErrInvalidScenario", err)
	}
	coalition := fairgossip.Scenario{N: 32, Colors: 2, Seed: 1, Coalition: 4, Deviation: "min-k-liar"}
	if _, err := fairgossip.MustRunner(coalition).RunLive(context.Background(), fairgossip.LiveOptions{}); !errors.Is(err, fairgossip.ErrInvalidScenario) {
		t.Fatalf("coalition scenario: err = %v, want ErrInvalidScenario", err)
	}
	plain := fairgossip.Scenario{N: 32, Colors: 2, Seed: 1}
	if _, err := fairgossip.MustRunner(plain).RunLive(context.Background(), fairgossip.LiveOptions{TransportDrop: 1.5}); !errors.Is(err, fairgossip.ErrInvalidScenario) {
		t.Fatalf("bad drop: err = %v, want ErrInvalidScenario", err)
	}
}

// TestRunLiveCancelled pins cancellation through the public surface.
func TestRunLiveCancelled(t *testing.T) {
	sc, err := fairgossip.Lookup("baseline")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fairgossip.MustRunner(sc).RunLive(ctx, fairgossip.LiveOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunLiveSocketTransports pins the transport axis through the public
// surface: unix and tcp runs produce the exact Result the channel run does
// (the transport moves bytes, never the outcome), an unknown transport is an
// invalid scenario, and the fault layer composes over a socket.
func TestRunLiveSocketTransports(t *testing.T) {
	sc, err := fairgossip.Lookup("baseline")
	if err != nil {
		t.Fatal(err)
	}
	r := fairgossip.MustRunner(sc)
	base, err := r.RunLive(context.Background(), fairgossip.LiveOptions{Transport: "channel"})
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"unix", "tcp"} {
		rep, err := r.RunLive(context.Background(), fairgossip.LiveOptions{Transport: transport})
		if err != nil {
			t.Fatalf("RunLive(%s): %v", transport, err)
		}
		if rep.Result != base.Result {
			t.Fatalf("%s result %+v diverged from channel %+v", transport, rep.Result, base.Result)
		}
		if rep.Delivered != base.Delivered {
			t.Fatalf("%s delivered %d messages, channel %d", transport, rep.Delivered, base.Delivered)
		}
	}
	if _, err := r.RunLive(context.Background(), fairgossip.LiveOptions{Transport: "carrier-pigeon"}); !errors.Is(err, fairgossip.ErrInvalidScenario) {
		t.Fatalf("bad transport: err = %v, want ErrInvalidScenario", err)
	}
	lossy, err := r.RunLive(context.Background(), fairgossip.LiveOptions{Transport: "unix", TransportDrop: 0.05})
	if err != nil {
		t.Fatalf("fault over socket: %v", err)
	}
	if lossy.Delivered == 0 {
		t.Fatal("fault layer over a socket delivered nothing")
	}
}

// TestRunLiveFaultTransport pins the lossy transport through the public
// surface: deterministic per seed, and jitter visible in the latency report.
func TestRunLiveFaultTransport(t *testing.T) {
	sc, err := fairgossip.Lookup("baseline")
	if err != nil {
		t.Fatal(err)
	}
	r := fairgossip.MustRunner(sc)
	opts := fairgossip.LiveOptions{TransportDrop: 0.05, Jitter: 50 * time.Microsecond}
	a, err := r.RunLive(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunLive(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result != b.Result {
		t.Fatalf("lossy live runs diverged: %+v vs %+v", a.Result, b.Result)
	}
	if a.LatencyP50 < 5*time.Microsecond {
		t.Fatalf("median latency %v under 50µs jitter", a.LatencyP50)
	}
}

// TestRunLivePooledAllocs pins that RunLive borrows the runner's pooled
// agents instead of building n fresh ones per call: once a first run has
// warmed the pool, a run at n=1024 allocates the runtime's own slabs and
// queues and little else — under 2 MB, where rebuilding the agents cost close
// to 10 MB.
func TestRunLivePooledAllocs(t *testing.T) {
	r := fairgossip.MustRunner(fairgossip.Scenario{N: 1024, Seed: 5})
	run := func() {
		if _, err := r.RunLive(context.Background(), fairgossip.LiveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	var before, after stdruntime.MemStats
	const runs = 3
	stdruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	stdruntime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 2<<20 {
		t.Fatalf("warmed RunLive at n=1024 allocates %d bytes per run, want at most 2 MiB", perOp)
	}
}
