package fairgossip_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"

	"repro/fairgossip"
)

// A single run: declare the setting, execute it once, inspect the detached
// result.
func ExampleRunner_Run() {
	runner, err := fairgossip.NewRunner(fairgossip.Scenario{
		N:             64,
		Colors:        2,
		ColorInit:     fairgossip.ColorsSplit,
		SplitFraction: 0.75,
		Seed:          7,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := runner.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	p := runner.Params()
	fmt.Printf("schedule: 4q+1 = %d rounds (q = %d)\n", p.Rounds, p.Q)
	fmt.Printf("outcome: %s, good execution: %v\n", res, res.Good.Good())
	// Output:
	// schedule: 4q+1 = 73 rounds (q = 18)
	// outcome: color(0) in 73 rounds, good execution: true
}

// A Monte-Carlo batch: run a registered scenario many times and fold the
// results into a Summary.
func ExampleRunner_Trials() {
	sc, err := fairgossip.Lookup("baseline")
	if err != nil {
		log.Fatal(err)
	}
	sc.N = 64 // shrink the registered setting for a quick experiment
	results, err := fairgossip.MustRunner(sc).Trials(context.Background(), 20)
	if err != nil {
		log.Fatal(err)
	}
	var sum fairgossip.Summary
	for _, res := range results {
		sum.Add(res)
	}
	fmt.Printf("trials: %d, success rate: %.2f, mean rounds: %.0f\n",
		sum.Trials, sum.SuccessRate(), sum.MeanRounds())
	// Output:
	// trials: 20, success rate: 1.00, mean rounds: 73
}

// A streaming experiment with cancellation: the stream runs in memory
// bounded by the chunk size, the observer sees trials in order, and
// cancelling the context stops the run promptly mid-batch — here after the
// first chunk of what would otherwise be a million trials.
func ExampleRunner_Stream() {
	runner := fairgossip.MustRunner(fairgossip.Scenario{
		N: 32, Colors: 2, Seed: 9, Workers: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	observed := 0
	err := runner.Stream(ctx, fairgossip.StreamOptions{Trials: 1_000_000, Chunk: 4},
		func(trial int, res fairgossip.Result) {
			observed++
			if observed == 4 {
				cancel() // seen enough
			}
		})
	fmt.Printf("observed %d of 1000000 trials, cancelled: %v\n",
		observed, errors.Is(err, context.Canceled))
	// Output:
	// observed 4 of 1000000 trials, cancelled: true
}

// A dynamic topology: the communication graph is a per-round graph process
// (here every potential edge is an independent birth/death Markov chain), so
// who can talk to whom changes while the protocol runs. The evolution is
// derived from each trial's seed — dynamic experiments reproduce exactly,
// and the wire form carries the process so anyone can replay them. Even this
// gentle churn (0.5% of present edges dying per round) costs the protocol
// runs: votes are pushed to peers declared up to 2q rounds earlier, and a
// vote lost to a dead edge leaves a binding declaration unfulfilled.
func ExampleScenario_dynamics() {
	sc := fairgossip.Scenario{
		N: 64, Colors: 2, Seed: 11,
		Dynamics: fairgossip.Dynamics{
			Kind:  fairgossip.DynamicsEdgeMarkovian,
			Birth: 0.001, Death: 0.005, // stationary degree ≈ (n−1)/6
		},
	}
	var sum fairgossip.Summary
	results, err := fairgossip.MustRunner(sc).Trials(context.Background(), 10)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		sum.Add(res)
	}
	doc, err := fairgossip.Encode(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("success rate under churn: %.1f\n", sum.SuccessRate())
	fmt.Printf("wire form mentions %q: %v\n", "edge-markovian",
		strings.Contains(string(doc), "edge-markovian"))
	// Output:
	// success rate under churn: 0.1
	// wire form mentions "edge-markovian": true
}

// Protocol variants: the same lossy setting that fails under the paper's
// strict verification succeeds under relaxed k-of-q verification, and the
// variant travels on the wire like any other scenario axis.
func ExampleScenario_protocol() {
	strict := fairgossip.Scenario{
		N: 64, Colors: 2, Seed: 11,
		Fault: fairgossip.FaultModel{Drop: 0.05}, // 5% per-message loss
	}
	relaxed := strict
	relaxed.Protocol = fairgossip.Protocol{
		Variant:  fairgossip.ProtocolRelaxed,
		MinVotes: 14, // tolerate up to q−14 violating voters per verifier
	}
	rate := func(sc fairgossip.Scenario) float64 {
		var sum fairgossip.Summary
		results, err := fairgossip.MustRunner(sc).Trials(context.Background(), 10)
		if err != nil {
			log.Fatal(err)
		}
		for _, res := range results {
			sum.Add(res)
		}
		return sum.SuccessRate()
	}
	doc, err := fairgossip.Encode(relaxed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strict verification under 5%% loss: %.1f\n", rate(strict))
	fmt.Printf("relaxed verification under 5%% loss: %.1f\n", rate(relaxed))
	fmt.Printf("wire form mentions %q: %v\n", "relaxed",
		strings.Contains(string(doc), "relaxed"))
	// Output:
	// strict verification under 5% loss: 0.0
	// relaxed verification under 5% loss: 1.0
	// wire form mentions "relaxed": true
}

// The runtime: RunLive executes the same scenario on the message-passing
// runtime — every agent a node with its own mailbox, every message a real
// delivery — and returns the identical Result plus the physical-layer
// observables (wall-clock, per-message latency) a simulated run cannot
// measure. The example prints only the deterministic fields; wall-clock and
// latency vary run to run.
func ExampleScenario_runtime() {
	sc := fairgossip.Scenario{N: 64, Colors: 2, Seed: 11}
	r := fairgossip.MustRunner(sc)
	sim, err := r.RunSeed(context.Background(), sc.Seed)
	if err != nil {
		log.Fatal(err)
	}
	live, err := r.RunLive(context.Background(), fairgossip.LiveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live result matches simulator: %v\n", live.Result == sim)
	fmt.Printf("rounds: %d\n", live.Result.Rounds)
	fmt.Printf("measured real deliveries: %v\n", live.Delivered > 0 && live.WallClock > 0)
	// Output:
	// live result matches simulator: true
	// rounds: 73
	// measured real deliveries: true
}

// The wire format: a version-1 JSON document decodes into a validated,
// defaults-applied scenario ready to run.
func ExampleDecode() {
	doc := []byte(`{
	  "version": 1,
	  "n": 64,
	  "fault": {"kind": "permanent", "alpha": 0.25},
	  "seed": 3
	}`)
	sc, err := fairgossip.Decode(doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("defaults applied: colors=%d gamma=%g topology=%s scheduler=%s\n",
		sc.Colors, sc.Gamma, sc.Topology, sc.Scheduler)
	res, err := fairgossip.MustRunner(sc).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outcome: %s\n", res)
	// Output:
	// defaults applied: colors=2 gamma=3 topology=complete scheduler=sync
	// outcome: color(1) in 73 rounds
}
