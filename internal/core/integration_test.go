package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func runOnce(t *testing.T, n int, colors []Color, faulty []bool, seed uint64) RunResult {
	t.Helper()
	numColors := 0
	for i, c := range colors {
		if faulty != nil && faulty[i] {
			continue
		}
		if int(c) >= numColors {
			numColors = int(c) + 1
		}
	}
	p := MustParams(n, numColors, DefaultGamma)
	res, err := Run(RunConfig{Params: p, Colors: colors, Faulty: faulty, Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunReachesConsensus(t *testing.T) {
	const n = 64
	res := runOnce(t, n, UniformColors(n, 2), nil, 42)
	if res.Outcome.Failed {
		t.Fatal("fault-free cooperative run failed")
	}
	if !res.Outcome.Color.Valid(2) {
		t.Fatalf("winning color %d invalid", res.Outcome.Color)
	}
	if !res.Good.Good() {
		t.Fatalf("execution not good: %+v", res.Good)
	}
}

func TestRunAllAgentsAgree(t *testing.T) {
	const n = 48
	res := runOnce(t, n, UniformColors(n, 3), nil, 7)
	if res.Outcome.Failed {
		t.Fatal("run failed")
	}
	for _, a := range res.Agents {
		if a.FinalColor() != res.Outcome.Color {
			t.Fatalf("agent %d decided %d, outcome %d", a.ID(), a.FinalColor(), res.Outcome.Color)
		}
	}
}

func TestRunWinnerColorWasSupported(t *testing.T) {
	// Validity: the winning color must be some active agent's initial color.
	const n = 40
	colors := SplitColors(n, 0.25)
	res := runOnce(t, n, colors, nil, 99)
	if res.Outcome.Failed {
		t.Fatal("run failed")
	}
	found := false
	for _, a := range res.Agents {
		if a.InitialColor() == res.Outcome.Color {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("winning color %d not initially supported", res.Outcome.Color)
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	const n = 32
	a := runOnce(t, n, UniformColors(n, 2), nil, 123)
	b := runOnce(t, n, UniformColors(n, 2), nil, 123)
	if a.Outcome != b.Outcome || a.Metrics != b.Metrics {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Outcome, b.Outcome)
	}
	c := runOnce(t, n, UniformColors(n, 2), nil, 124)
	_ = c // different seed may or may not differ in outcome; just must not crash
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	const n = 64
	p := MustParams(n, 2, DefaultGamma)
	base, err := Run(RunConfig{Params: p, Colors: UniformColors(n, 2), Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 0} {
		got, err := Run(RunConfig{Params: p, Colors: UniformColors(n, 2), Seed: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got.Outcome != base.Outcome || got.Metrics != base.Metrics {
			t.Fatalf("workers=%d diverged from serial run", w)
		}
	}
}

func TestRunRoundsMatchSchedule(t *testing.T) {
	const n = 64
	p := MustParams(n, 2, 2)
	res, err := Run(RunConfig{Params: p, Colors: UniformColors(n, 2), Seed: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Engine runs TotalRounds then one extra round to observe all-decided.
	if res.Rounds < p.TotalRounds() || res.Rounds > p.TotalRounds()+1 {
		t.Fatalf("rounds = %d, schedule = %d", res.Rounds, p.TotalRounds())
	}
}

func TestRunWithWorstCaseFaults(t *testing.T) {
	const n = 80
	for _, alpha := range []float64{0.1, 0.3, 0.5} {
		faulty := WorstCaseFaults(n, alpha)
		res := runOnce(t, n, UniformColors(n, 2), faulty, uint64(1000*alpha))
		if res.Outcome.Failed {
			t.Fatalf("α=%.1f: run failed", alpha)
		}
	}
}

func TestRunFairnessTwoColors(t *testing.T) {
	// 2/3 vs 1/3 split; the winner distribution over trials must match.
	const n, trials = 45, 600
	colors := SplitColors(n, 2.0/3.0)
	wins := make([]int, 2)
	fails := 0
	for s := 0; s < trials; s++ {
		res := runOnce(t, n, colors, nil, uint64(s)+1)
		if res.Outcome.Failed {
			fails++
			continue
		}
		wins[res.Outcome.Color]++
	}
	if fails > trials/50 {
		t.Fatalf("%d/%d runs failed", fails, trials)
	}
	res, err := stats.ChiSquareGOF(wins, []float64{2.0 / 3.0, 1.0 / 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Fatalf("fairness rejected: wins=%v p=%v", wins, res.PValue)
	}
}

func TestRunFairLeaderElection(t *testing.T) {
	// Every agent has its own color; each must win with probability 1/n.
	const n, trials = 16, 800
	colors := LeaderElectionColors(n)
	wins := make([]int, n)
	fails := 0
	for s := 0; s < trials; s++ {
		res := runOnce(t, n, colors, nil, uint64(s)+5000)
		if res.Outcome.Failed {
			fails++
			continue
		}
		wins[res.Outcome.Color]++
	}
	if fails > trials/20 {
		t.Fatalf("%d/%d runs failed", fails, trials)
	}
	expected := make([]float64, n)
	for i := range expected {
		expected[i] = 1.0 / n
	}
	gof, err := stats.ChiSquareGOF(wins, expected)
	if err != nil {
		t.Fatal(err)
	}
	if gof.PValue < 0.001 {
		t.Fatalf("leader election unfair: wins=%v p=%v", wins, gof.PValue)
	}
}

func TestRunFairnessExcludesFaulty(t *testing.T) {
	// With faults on the first quarter (all color 0), the winner
	// distribution must follow the ACTIVE agents' split, not the global one.
	const n, trials = 48, 500
	colors := SplitColors(n, 0.5)      // 24 zeros, 24 ones
	faulty := WorstCaseFaults(n, 0.25) // kills 12 zeros
	wantZero := 12.0 / 36.0            // active: 12 zeros, 24 ones
	wins := make([]int, 2)
	fails := 0
	for s := 0; s < trials; s++ {
		res := runOnce(t, n, colors, faulty, uint64(s)+9000)
		if res.Outcome.Failed {
			fails++
			continue
		}
		wins[res.Outcome.Color]++
	}
	if fails > trials/20 {
		t.Fatalf("%d/%d runs failed", fails, trials)
	}
	gof, err := stats.ChiSquareGOF(wins, []float64{wantZero, 1 - wantZero})
	if err != nil {
		t.Fatal(err)
	}
	if gof.PValue < 0.001 {
		t.Fatalf("faulty-adjusted fairness rejected: wins=%v p=%v", wins, gof.PValue)
	}
}

func TestRunMessageSizesPolylog(t *testing.T) {
	for _, n := range []int{64, 256} {
		p := MustParams(n, 2, 2)
		res, err := Run(RunConfig{Params: p, Colors: UniformColors(n, 2), Seed: 77, Workers: 0})
		if err != nil {
			t.Fatal(err)
		}
		logn := math.Log2(float64(n))
		if got := float64(res.Metrics.MaxMessageBits); got > 60*logn*logn {
			t.Errorf("n=%d: max message %v bits > 60·log²n = %v", n, got, 60*logn*logn)
		}
	}
}

func TestRunCommunicationSubquadratic(t *testing.T) {
	const n = 512
	p := MustParams(n, 2, 2)
	res, err := Run(RunConfig{Params: p, Colors: UniformColors(n, 2), Seed: 3, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Messages; got >= n*n/2 {
		t.Fatalf("messages = %d, not o(n²) at n=%d", got, n)
	}
}

func TestGoodExecutionHoldsWHP(t *testing.T) {
	const n, trials = 64, 100
	good := 0
	for s := 0; s < trials; s++ {
		res := runOnce(t, n, UniformColors(n, 2), nil, uint64(s)+400)
		if res.Good.Good() {
			good++
		}
	}
	if good < trials-2 {
		t.Fatalf("only %d/%d executions good", good, trials)
	}
}

func TestCheckGoodExecutionEmpty(t *testing.T) {
	p := MustParams(8, 2, 1)
	g := CheckGoodExecution(p, nil)
	if !g.Good() || g.ActiveAgents != 0 {
		t.Fatalf("empty check = %+v", g)
	}
}

// TestCheckGoodExecutionDistinctK holds the pooled sort-and-compare check of
// property 2 to the set-membership rule it replaced. At n = 8 the vote space
// is m = 512, so equal kᵤ values are common enough for both verdicts to occur.
func TestCheckGoodExecutionDistinctK(t *testing.T) {
	p := MustParams(8, 2, 1)
	pool := &RunPool{}
	verdicts := map[bool]int{}
	for seed := uint64(1); seed <= 400; seed++ {
		res, err := Run(RunConfig{Params: p, Colors: UniformColors(p.N, 2), Seed: seed, Workers: 1, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		want := true
		for _, a := range res.Agents {
			if seen[a.K()] {
				want = false
			}
			seen[a.K()] = true
		}
		if res.Good.DistinctK != want {
			t.Fatalf("seed %d: pooled DistinctK = %v, set rule says %v", seed, res.Good.DistinctK, want)
		}
		if g := CheckGoodExecution(p, res.Agents); g != res.Good {
			t.Fatalf("seed %d: CheckGoodExecution = %+v, pooled run reported %+v", seed, g, res.Good)
		}
		verdicts[want]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v: the seeds do not exercise both outcomes", verdicts)
	}
}

func TestRunErrors(t *testing.T) {
	p := MustParams(8, 2, 1)
	if _, err := Run(RunConfig{Params: p, Colors: make([]Color, 3)}); err == nil {
		t.Fatal("bad colors length accepted")
	}
	bad := UniformColors(8, 2)
	bad[2] = 17
	if _, err := Run(RunConfig{Params: p, Colors: bad}); err == nil {
		t.Fatal("out-of-palette color accepted")
	}
}

func TestHelperConstructors(t *testing.T) {
	u := UniformColors(10, 3)
	counts := map[Color]int{}
	for _, c := range u {
		counts[c]++
	}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("UniformColors = %v", u)
	}
	s := SplitColors(10, 0.3)
	zeros := 0
	for _, c := range s {
		if c == 0 {
			zeros++
		}
	}
	if zeros != 3 {
		t.Fatalf("SplitColors zeros = %d", zeros)
	}
	le := LeaderElectionColors(5)
	for i, c := range le {
		if int(c) != i {
			t.Fatalf("LeaderElectionColors = %v", le)
		}
	}
	f := WorstCaseFaults(10, 0.4)
	nf := 0
	for _, b := range f {
		if b {
			nf++
		}
	}
	if nf != 4 {
		t.Fatalf("WorstCaseFaults marked %d", nf)
	}
}

func TestHelperPanics(t *testing.T) {
	for i, f := range []func(){
		func() { SplitColors(10, -0.1) },
		func() { SplitColors(10, 1.1) },
		func() { WorstCaseFaults(10, 1.0) },
		func() { WorstCaseFaults(10, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestOutcomeString(t *testing.T) {
	if (Outcome{Failed: true}).String() != "⊥" {
		t.Fatal("failed outcome string")
	}
	if (Outcome{Color: 3}).String() == "" {
		t.Fatal("color outcome string empty")
	}
}
