package rational

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

func TestUtilityOf(t *testing.T) {
	u := Utility{Chi: 2}
	if got := u.Of(1, core.Outcome{Color: 1}); got != 1 {
		t.Fatalf("own color utility = %v", got)
	}
	if got := u.Of(1, core.Outcome{Color: 0}); got != 0 {
		t.Fatalf("other color utility = %v", got)
	}
	if got := u.Of(1, core.Outcome{Failed: true}); got != -2 {
		t.Fatalf("failure utility = %v", got)
	}
	if got := (Utility{}).Of(1, core.Outcome{Failed: true}); got != 0 {
		t.Fatalf("χ=0 failure utility = %v", got)
	}
}

func TestCoalitionBlackboard(t *testing.T) {
	c := NewCoalition([]int{3, 7})
	if !c.Contains(3) || !c.Contains(7) || c.Contains(5) {
		t.Fatal("Contains wrong")
	}
	c.ShareIntel(1, []core.Intent{{H: 10, Z: 2}})
	c.ShareIntel(1, []core.Intent{{H: 99, Z: 2}}) // second ignored
	in, ok := c.Intel(1)
	if !ok || in[0].H != 10 {
		t.Fatalf("Intel = %v, %v", in, ok)
	}
	if c.IntelSize() != 1 {
		t.Fatalf("IntelSize = %d", c.IntelSize())
	}
	if _, ok := c.Intel(2); ok {
		t.Fatal("phantom intel")
	}
}

func TestCoalitionMinCert(t *testing.T) {
	p := core.MustParams(8, 2, 1)
	c := NewCoalition([]int{1, 2})
	if c.MinCert() != nil {
		t.Fatal("MinCert before registration")
	}
	c.RegisterCert(1, &core.Certificate{P: p, K: 50, Owner: 1})
	c.RegisterCert(2, &core.Certificate{P: p, K: 10, Owner: 2})
	if got := c.MinCert(); got.K != 10 {
		t.Fatalf("MinCert K = %d", got.K)
	}
	// Cached once complete: later registrations do not change the choice.
	c.RegisterCert(1, &core.Certificate{P: p, K: 1, Owner: 1})
	if got := c.MinCert(); got.K != 10 {
		t.Fatalf("MinCert changed after caching: K = %d", got.K)
	}
}

func TestRunGameValidation(t *testing.T) {
	p := core.MustParams(16, 2, 1)
	colors := core.UniformColors(16, 2)
	badColor := core.UniformColors(16, 2)
	badColor[2] = 7
	cases := []GameConfig{
		{Params: p, Colors: colors[:3]},                                                                              // bad colors len
		{Params: p, Colors: colors, Coalition: []int{99}, Deviation: Honest{}},                                       // member out of range
		{Params: p, Colors: colors, Coalition: []int{1, 1}, Deviation: Honest{}},                                     // duplicate
		{Params: p, Colors: colors, Coalition: []int{1}},                                                             // nil deviation
		{Params: p, Colors: colors, Faulty: core.WorstCaseFaults(16, 0.2), Coalition: []int{0}, Deviation: Honest{}}, // faulty member
		{Params: p, Colors: colors, Topology: topo.NewComplete(8)},                                                   // topology size is not n
		{Params: p, Colors: badColor, Coalition: []int{2}, Deviation: Honest{}},                                      // member's color outside Σ
	}
	for i, cfg := range cases {
		if _, err := RunGame(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunGameHonestCoalitionMatchesPlainRun(t *testing.T) {
	// An all-honest "deviation" must leave the system in the cooperative
	// regime: no failures across seeds.
	p := core.MustParams(32, 2, core.DefaultGamma)
	colors := core.UniformColors(32, 2)
	for seed := uint64(0); seed < 30; seed++ {
		res, err := RunGame(GameConfig{
			Params: p, Colors: colors,
			Coalition: []int{3, 10}, Deviation: Honest{},
			Seed: seed, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome.Failed {
			t.Fatalf("seed %d: honest-coalition game failed", seed)
		}
	}
}

func TestRunGameDeterministic(t *testing.T) {
	p := core.MustParams(32, 2, core.DefaultGamma)
	colors := core.UniformColors(32, 2)
	cfg := GameConfig{
		Params: p, Colors: colors,
		Coalition: []int{0}, Deviation: MinKLiar{},
		Seed: 9, Workers: 1,
	}
	a, err := RunGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome || a.Metrics != b.Metrics {
		t.Fatal("same-seed games diverged")
	}
}

func countOutcomes(t *testing.T, dev Deviation, coalition []int, n, trials int) (fails, coalWins int) {
	t.Helper()
	p := core.MustParams(n, 2, core.DefaultGamma)
	colors := core.UniformColors(n, 2)
	for s := 0; s < trials; s++ {
		res, err := RunGame(GameConfig{
			Params: p, Colors: colors,
			Coalition: coalition, Deviation: dev,
			Seed: uint64(s) + 1, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome.Failed {
			fails++
			continue
		}
		if res.CoalitionColorWon {
			coalWins++
		}
	}
	return fails, coalWins
}

func TestMinKLiarIsCaught(t *testing.T) {
	// A forged minimal certificate must be detected by verifiers holding the
	// ringleader's binding declaration; the outcome collapses to ⊥ in
	// (nearly) every trial, and the coalition color must not win more often
	// than its fair share.
	const n, trials = 48, 60
	fails, wins := countOutcomes(t, MinKLiar{}, []int{5}, n, trials)
	if fails < trials*9/10 {
		t.Fatalf("forgery escaped detection: only %d/%d failures", fails, trials)
	}
	if wins > trials/4 {
		t.Fatalf("liar color won %d/%d times", wins, trials)
	}
}

func TestCertForgerIsCaught(t *testing.T) {
	const n, trials = 48, 60
	fails, wins := countOutcomes(t, CertForger{}, []int{5, 11}, n, trials)
	if fails < trials*3/4 {
		t.Fatalf("smart forgery escaped: only %d/%d failures", fails, trials)
	}
	if wins > trials/4 {
		t.Fatalf("forger colors won %d/%d times", wins, trials)
	}
}

func TestAdaptiveSelfVoterNeverProfitsUndetected(t *testing.T) {
	// Whenever the adaptive self-vote lands (k = 1 wins Find-Min), the
	// undeclared vote makes verification fail; the deviator's color must not
	// win above fair share.
	const n, trials = 48, 80
	_, wins := countOutcomes(t, AdaptiveSelfVoter{}, []int{7}, n, trials)
	// Fair share of color 1 (= 24/48): even at fair play wins ≈ trials/2;
	// the attack must not push it meaningfully above.
	if float64(wins) > 0.65*float64(trials) {
		t.Fatalf("adaptive self-voter color won %d/%d", wins, trials)
	}
}

func TestPretendFaultyDoesNotDisrupt(t *testing.T) {
	// A silent coalition looks like crashes; the protocol tolerates it and
	// failure stays rare.
	const n, trials = 48, 60
	fails, _ := countOutcomes(t, PretendFaulty{}, []int{2, 9, 17}, n, trials)
	if fails > trials/10 {
		t.Fatalf("pretend-faulty caused %d/%d failures", fails, trials)
	}
}

func TestMinPromoterSilentIsHarmless(t *testing.T) {
	const n, trials = 48, 60
	fails, _ := countOutcomes(t, MinPromoter{Push: false}, []int{4, 20}, n, trials)
	if fails > trials/10 {
		t.Fatalf("silent promoter caused %d/%d failures", fails, trials)
	}
}

func TestMinPromoterPushFailsOrLegit(t *testing.T) {
	// Pushing a non-minimal certificate during Coherence splits the view and
	// the protocol fails; wins only occur when the coalition honestly holds
	// the minimum. So wins stay near the owner share |C|/|A| and everything
	// else mostly fails.
	const n, trials = 48, 80
	fails, wins := countOutcomes(t, MinPromoter{Push: true}, []int{4, 20}, n, trials)
	if wins > trials/4 {
		t.Fatalf("pushy promoter colors won %d/%d", wins, trials)
	}
	if fails < trials/2 {
		t.Fatalf("pushy promoter only failed %d/%d (suppression went unnoticed)", fails, trials)
	}
}

func TestEquilibriumAcrossAllDeviations(t *testing.T) {
	// The headline claim (Theorem 7): for every deviation in the library,
	// at least one coalition member fails to profit significantly.
	const n, trials = 48, 120
	p := core.MustParams(n, 2, core.DefaultGamma)
	colors := core.UniformColors(n, 2)
	for _, dev := range AllDeviations() {
		rep, err := EvaluateEquilibrium(EquilibriumConfig{
			Params: p, Colors: colors,
			Coalition: []int{3, 12, 27},
			Deviation: dev,
			Utility:   Utility{Chi: 1},
			Trials:    trials,
			Seed:      42,
		})
		if err != nil {
			t.Fatalf("%s: %v", dev.Name(), err)
		}
		if !rep.SomeMemberDoesNotProfit() {
			t.Errorf("%s: every member profited significantly: %+v", dev.Name(), rep.Members)
		}
		if rep.DevCoalitionWinRate > rep.FairShare+0.15 {
			t.Errorf("%s: coalition win rate %.3f far above fair share %.3f",
				dev.Name(), rep.DevCoalitionWinRate, rep.FairShare)
		}
	}
}

func TestEvaluateEquilibriumValidation(t *testing.T) {
	p := core.MustParams(16, 2, 1)
	colors := core.UniformColors(16, 2)
	base := EquilibriumConfig{Params: p, Colors: colors, Coalition: []int{1},
		Deviation: Honest{}, Trials: 1}
	bad := base
	bad.Trials = 0
	if _, err := EvaluateEquilibrium(bad); err == nil {
		t.Error("zero trials accepted")
	}
	bad = base
	bad.Coalition = nil
	if _, err := EvaluateEquilibrium(bad); err == nil {
		t.Error("empty coalition accepted")
	}
	bad = base
	bad.Deviation = nil
	if _, err := EvaluateEquilibrium(bad); err == nil {
		t.Error("nil deviation accepted")
	}
}

func TestDeviationByName(t *testing.T) {
	for _, d := range AllDeviations() {
		got, err := DeviationByName(d.Name())
		if err != nil || got.Name() != d.Name() {
			t.Errorf("DeviationByName(%q) = %v, %v", d.Name(), got, err)
		}
	}
	if d, err := DeviationByName("honest"); err != nil || d.Name() != "honest" {
		t.Error("honest not found")
	}
	if _, err := DeviationByName("nope"); err == nil {
		t.Error("unknown deviation accepted")
	}
}

func TestAllDeviationNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range AllDeviations() {
		if seen[d.Name()] {
			t.Fatalf("duplicate deviation name %q", d.Name())
		}
		seen[d.Name()] = true
	}
}

func TestEquilibriumWithFaultsAndCoalition(t *testing.T) {
	// Theorem 7 holds with worst-case permanent faults AND a deviating
	// coalition at the same time. α = 0.25 faults, 3-member liar coalition.
	const n, trials = 48, 100
	p := core.MustParams(n, 2, core.DefaultGamma)
	colors := core.UniformColors(n, 2)
	faulty := core.WorstCaseFaults(n, 0.25) // kills IDs 0..11
	rep, err := EvaluateEquilibrium(EquilibriumConfig{
		Params: p, Colors: colors, Faulty: faulty,
		Coalition: []int{20, 30, 40},
		Deviation: MinKLiar{},
		Utility:   Utility{Chi: 1},
		Trials:    trials,
		Seed:      314,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HonestFailRate > 0.05 {
		t.Fatalf("honest profile with faults failed %v of runs", rep.HonestFailRate)
	}
	if !rep.SomeMemberDoesNotProfit() {
		t.Fatalf("liar profited under faults: %+v", rep.Members)
	}
	if rep.DevCoalitionWinRate > rep.FairShare+0.15 {
		t.Fatalf("coalition win rate %v above fair share %v", rep.DevCoalitionWinRate, rep.FairShare)
	}
}

func TestPretendFaultyStacksWithRealFaults(t *testing.T) {
	// Crash-mimicking deviators on top of real crashes: the protocol sees
	// an effectively larger α and still converges (Lemma 3 with α' > α).
	const n, trials = 48, 60
	p := core.MustParams(n, 2, core.DefaultGamma)
	colors := core.UniformColors(n, 2)
	faulty := core.WorstCaseFaults(n, 0.25)
	fails := 0
	for s := 0; s < trials; s++ {
		res, err := RunGame(GameConfig{
			Params: p, Colors: colors, Faulty: faulty,
			Coalition: []int{20, 25, 30, 35}, Deviation: PretendFaulty{},
			Seed: uint64(s) + 1, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome.Failed {
			fails++
		}
	}
	if fails > trials/10 {
		t.Fatalf("faults + crash-mimics caused %d/%d failures", fails, trials)
	}
}
