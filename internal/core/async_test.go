package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/topo"
)

func TestAsyncAgentLocalPhases(t *testing.T) {
	p := MustParams(16, 2, 1) // q = 4
	a := NewAsyncAgent(0, p, 0, topo.NewComplete(16), rng.New(1))
	var phases []asyncPhase
	for _, ph := range []asyncPhase{
		asyncCommitment, asyncVoting, asyncSettle, asyncSettle,
	} {
		for i := 0; i < p.Q; i++ {
			phases = append(phases, ph)
		}
	}
	for i := 0; i < 2*p.Q; i++ {
		phases = append(phases, asyncFindMin)
	}
	for i := 0; i < p.Q; i++ {
		phases = append(phases, asyncCoherence)
	}
	phases = append(phases, asyncVerification)
	if len(phases) != p.TotalActivations() {
		t.Fatalf("schedule length %d != TotalActivations %d", len(phases), p.TotalActivations())
	}
	for i, want := range phases {
		if got := a.localPhase(); got != want {
			t.Fatalf("activation %d: phase %v, want %v", i, got, want)
		}
		a.Act(i * 1000) // tick value must be irrelevant
	}
	if !a.Decided() {
		t.Fatal("agent not decided after 7q+1 activations")
	}
}

func TestAsyncAgentAnswersByQueryType(t *testing.T) {
	p := MustParams(16, 2, 1)
	a := NewAsyncAgent(0, p, 0, topo.NewComplete(16), rng.New(2))
	if _, ok := a.HandlePull(0, 1, IntentQuery{P: p}).(Intentions); !ok {
		t.Fatal("intent query unanswered")
	}
	if a.HandlePull(0, 1, CertQuery{P: p}) != nil {
		t.Fatal("cert query answered before finalization")
	}
	for i := 0; i < 4*p.Q; i++ {
		a.Act(i)
	}
	a.Act(4 * p.Q) // first find-min activation finalizes
	if _, ok := a.HandlePull(0, 1, CertQuery{P: p}).(*Certificate); !ok {
		t.Fatal("cert query unanswered after finalization")
	}
}

func TestAsyncAgentLateVotesDropped(t *testing.T) {
	p := MustParams(16, 2, 1)
	a := NewAsyncAgent(0, p, 0, topo.NewComplete(16), rng.New(3))
	a.HandlePush(0, 5, Vote{P: p, Value: 10})
	for i := 0; i <= 4*p.Q; i++ {
		a.Act(i) // reaches find-min, finalizes certificate
	}
	a.HandlePush(0, 6, Vote{P: p, Value: 20})
	if len(a.w) != 1 {
		t.Fatalf("late vote accepted: W=%v", a.w)
	}
}

func TestRunAsyncReachesFairConsensus(t *testing.T) {
	const n, trials = 32, 200
	p := MustParams(n, 2, DefaultAsyncGamma)
	colors := SplitColors(n, 0.5)
	wins := make([]int, 2)
	fails := 0
	for s := 0; s < trials; s++ {
		out, ticks, err := RunAsync(AsyncRunConfig{Params: p, Colors: colors, Seed: uint64(s) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if ticks <= 0 {
			t.Fatal("no ticks consumed")
		}
		if out.Failed {
			fails++
			continue
		}
		wins[out.Color]++
	}
	// With the async phase constant, boundary losses are rare.
	if fails > trials/20 {
		t.Fatalf("async adaptation failed %d/%d runs", fails, trials)
	}
	gof, err := stats.ChiSquareGOF(wins, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if gof.PValue < 0.001 {
		t.Fatalf("async consensus unfair: %v p=%v", wins, gof.PValue)
	}
}

func TestRunAsyncWithFaults(t *testing.T) {
	const n = 32
	p := MustParams(n, 2, DefaultAsyncGamma)
	okRuns := 0
	for s := 0; s < 30; s++ {
		out, _, err := RunAsync(AsyncRunConfig{
			Params: p, Colors: UniformColors(n, 2),
			Faulty: WorstCaseFaults(n, 0.25), Seed: uint64(s) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Failed {
			okRuns++
		}
	}
	if okRuns < 27 {
		t.Fatalf("async with faults succeeded only %d/30", okRuns)
	}
}

func TestRunAsyncValidation(t *testing.T) {
	p := MustParams(8, 2, 1)
	if _, _, err := RunAsync(AsyncRunConfig{Params: p, Colors: make([]Color, 2)}); err == nil {
		t.Fatal("bad colors length accepted")
	}
	// A color outside Σ is an error, the one PrepareRun returns, not a panic
	// in NewAsyncAgent.
	colors := UniformColors(8, 2)
	colors[3] = 7
	_, want := PrepareRun(RunConfig{Params: p, Colors: colors})
	_, err := RunAsyncResult(AsyncRunConfig{Params: p, Colors: colors})
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("color outside Σ: RunAsyncResult error %v, PrepareRun error %v", err, want)
	}
}

func TestNewAsyncAgentRejectsInvalidColor(t *testing.T) {
	p := MustParams(8, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid color accepted")
		}
	}()
	NewAsyncAgent(0, p, 5, topo.NewComplete(8), rng.New(1))
}
