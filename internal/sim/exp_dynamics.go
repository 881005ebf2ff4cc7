package sim

import (
	"context"
	"fmt"

	"repro/fairgossip"
)

// DynamicsOptions configures E12, the dynamic-topology experiment: Protocol P
// on graphs whose edge set evolves per round — the graph-process analogue of
// churn, and the natural sharpening of open problem 1 (other graph classes)
// toward the paper's motivating "networks whose structure is not fixed".
type DynamicsOptions struct {
	N       int
	Gamma   float64
	Trials  int
	Seed    uint64
	Workers int
	// ScaleNs are the network sizes of the E12b churn-at-scale sweep, run at
	// the fixed stationary degree ScaleDegree in the sub-0.5%/round regime
	// the E12 finding cares about. The sweep exists because the sparse
	// Θ(flips) engine opened sizes the dense engine's n ≤ 4096 bound (and
	// its Θ(n²) per round) made unreachable.
	ScaleNs []int
	// ScaleDeaths are the per-round edge death rates of the E12b sweep.
	ScaleDeaths []float64
	// ScaleDegree is the stationary mean degree held fixed across the E12b
	// sweep (birth is derived per n); 0 defaults to 64.
	ScaleDegree int
	// ScaleTrials is the per-cell trial count of the E12b sweep; it is
	// deliberately smaller than Trials because a single n = 16384 trial costs
	// seconds, not milliseconds.
	ScaleTrials int
}

// DefaultDynamicsOptions is the full experiment.
func DefaultDynamicsOptions() DynamicsOptions {
	return DynamicsOptions{
		N: 128, Trials: 120, Seed: 12,
		ScaleNs:     []int{1024, 4096, 16384},
		ScaleDeaths: []float64{0.001, 0.002, 0.005},
		ScaleTrials: 10,
	}
}

// QuickDynamicsOptions is a scaled-down variant for tests.
func QuickDynamicsOptions() DynamicsOptions {
	return DynamicsOptions{
		N: 64, Trials: 30, Seed: 12,
		ScaleNs:     []int{256, 1024},
		ScaleDeaths: []float64{0.001, 0.005},
		ScaleTrials: 8,
	}
}

// RunE12Dynamics regenerates E12 and E12b: success and round count of
// Protocol P as a function of the per-round edge churn rate, at one size
// (E12) and across sizes (E12b).
//
// The E12 edge-Markovian rows hold the stationary degree fixed at ≈ (n−1)/4
// (birth = death/3) and sweep the death rate, so the only thing that varies
// is how fast the same-density graph turns over; the rewiring-ring rows
// sweep the Watts–Strogatz β of a per-round-resampled ring. The mechanism
// under test is the binding declarations: a Voting-phase push addressed to a
// peer sampled rounds earlier is dropped if that edge has meanwhile died,
// and every unfulfilled declaration is a reason for verifiers to reject —
// the same brittleness lossy links and mid-voting crashes expose.
//
// E12b asks how that churn boundary moves with network size: it holds the
// stationary degree fixed at an n-independent ScaleDegree (the sparse
// regime: density π = deg/(n−1) falls as n grows) and sweeps death rates in
// the sub-0.5%/round band across ScaleNs. Larger networks run more rounds
// (q grows with log n) and bind votes for longer, so the tolerable churn
// rate shrinks as n grows.
func RunE12Dynamics(o DynamicsOptions) []*Table {
	e12 := &Table{
		ID: "E12",
		Title: fmt.Sprintf("Dynamic topologies at n = %d: Protocol P vs per-round edge churn",
			o.N),
		Columns: []string{"process", "churn/round", "success", "mean rounds", "trials"},
	}
	type row struct {
		label string
		churn float64
		dyn   fairgossip.Dynamics
	}
	rows := []row{
		{"static complete", 0, fairgossip.Dynamics{}},
	}
	// Fixed stationary density π = 1/4; death is the per-edge churn rate.
	for _, death := range []float64{0.001, 0.005, 0.02, 0.1} {
		rows = append(rows, row{"edge-markovian", death, fairgossip.Dynamics{
			Kind: fairgossip.DynamicsEdgeMarkovian, Birth: death / 3, Death: death,
		}})
	}
	for _, beta := range []float64{0, 0.25} {
		rows = append(rows, row{"rewire-ring", beta, fairgossip.Dynamics{
			Kind: fairgossip.DynamicsRewireRing, Beta: beta,
		}})
	}
	for i, rw := range rows {
		succ, rounds := dynamicsCell(fairgossip.Scenario{
			N: o.N, Colors: 2, Gamma: o.Gamma,
			Dynamics: rw.dyn,
			Seed:     ConfigSeed(o.Seed, uint64(i)),
			Workers:  o.Workers,
		}, o.Trials)
		e12.AddRow(rw.label, F(rw.churn), Pct(succ), F(rounds), I(o.Trials))
	}
	e12.AddNote("edge-markovian rows share one stationary degree ≈ (n−1)/4; only the turnover rate varies")
	e12.AddNote("the protocol tolerates only sub-0.5%%/round edge churn: votes are bound to peers sampled up to 2q rounds earlier, and each vote lost to a dead edge is an unfulfilled declaration — the same collapse as 5%% message loss or a mid-voting crash")

	deg := o.ScaleDegree
	if deg == 0 {
		deg = 64
	}
	if o.ScaleTrials == 0 {
		o.ScaleTrials = 10 // like ScaleDegree, options predating E12b get the default
	}
	e12b := &Table{
		ID: "E12b",
		Title: fmt.Sprintf("Churn at scale: Protocol P vs per-round edge churn, stationary degree %d",
			deg),
		Columns: []string{"n", "death/round", "success", "mean rounds", "trials"},
	}
	cell := 0
	for _, n := range o.ScaleNs {
		pi := float64(deg) / float64(n-1)
		for _, death := range o.ScaleDeaths {
			succ, rounds := dynamicsCell(fairgossip.Scenario{
				N: n, Colors: 2, Gamma: o.Gamma,
				Dynamics: fairgossip.Dynamics{
					Kind:  fairgossip.DynamicsEdgeMarkovian,
					Birth: death * pi / (1 - pi), // stationary law pinned at π = deg/(n−1)
					Death: death,
				},
				Seed:    ConfigSeed(o.Seed, 1000+uint64(cell)),
				Workers: o.Workers,
			}, o.ScaleTrials)
			e12b.AddRow(I(n), F(death), Pct(succ), F(rounds), I(o.ScaleTrials))
			cell++
		}
	}
	e12b.AddNote("every cell shares the same expected degree; only n and the turnover rate vary — the sweep the sparse Θ(flips) engine makes affordable (the dense engine paid Θ(n²) per round and stopped at n = 4096)")
	e12b.AddNote("the churn boundary tightens with n: more rounds (q ∝ log n) mean longer-lived binding declarations, so the same per-edge death rate kills more declared votes per run")
	return []*Table{e12, e12b}
}

// ChurnScaleOptions configures E13, the million-node churn sweep: Protocol P
// on implicitly represented sparse dynamic graphs at sizes the per-pair
// engines could never admit. The O(present-edges) membership set lifted the
// dynamic-topology cap from n = 32768 to n = 2²⁰, and E13 is the experiment
// that cap was lifted for.
type ChurnScaleOptions struct {
	// Ns are the edge-Markovian sweep sizes, ascending; the largest runs
	// LargeTrials per cell instead of Trials (a million-node trial costs
	// minutes, not seconds).
	Ns []int
	// Deaths are the per-round edge death rates swept at every n.
	Deaths []float64
	// Degree is the expected degree held fixed across every row (birth is
	// derived per n); 0 defaults to 64.
	Degree int
	// Trials is the per-cell trial count at every n except the largest.
	Trials int
	// LargeTrials is the per-cell trial count at the largest n.
	LargeTrials int
	// AltN is the size of the comparison rows that run the implicit sparse
	// generators — a per-round re-matched random d-regular graph and a
	// geometric torus under positional jitter — next to the edge-Markovian
	// cells; 0 disables them.
	AltN    int
	Gamma   float64
	Seed    uint64
	Workers int
}

// DefaultChurnScaleOptions is the full experiment: n ∈ {10⁵, 10⁶}.
func DefaultChurnScaleOptions() ChurnScaleOptions {
	return ChurnScaleOptions{
		Ns:     []int{100_000, 1_000_000},
		Deaths: []float64{0.0001, 0.002},
		Degree: 64, Trials: 3, LargeTrials: 2,
		AltN: 100_000, Seed: 13,
	}
}

// QuickChurnScaleOptions is a scaled-down variant for tests.
func QuickChurnScaleOptions() ChurnScaleOptions {
	return ChurnScaleOptions{
		Ns:     []int{2048, 8192},
		Deaths: []float64{0.0005, 0.002},
		Degree: 32, Trials: 4, LargeTrials: 3,
		AltN: 2048, Seed: 13,
	}
}

// RunE13ChurnAtScale regenerates E13: Protocol P under per-round graph churn
// at n ∈ Ns — the sweep the O(edges) membership refactor unlocks. Every row
// holds the expected degree fixed (the sparse regime: density falls as 1/n),
// so the independent variables are the network size and the turnover law:
//
//   - edge-markovian rows sweep the per-edge death rate with birth pinned to
//     the stationary degree, the same law as E12b but at 6×–60× its largest
//     size;
//   - the d-regular row resamples the entire matching every round — the
//     full-turnover extreme (churn column 1): no edge survives, so every
//     binding declaration addressed more than a round back is dead;
//   - the geometric rows drift torus points by a per-round jitter (churn
//     column = jitter): churn is boundary-only and spatially correlated,
//     the gentlest turnover law at the same degree.
//
// The million-node cells pin the asymptotic trend of the E12 finding: the
// tolerable churn rate keeps shrinking as q ∝ log n stretches the binding
// window — 0.2%/round is total collapse at both sizes, while 0.01%/round
// still succeeds in 2–3 of 3 trials at n = 10⁵ (the spread of two seed
// mappings of the same law) and 1 of 2 at n = 10⁶; so few trials bound the
// rate only coarsely. The geometric rows fail at every jitter for a
// different reason: a connection radius r ~ sqrt(deg/n) gives the torus a
// Θ(1/r) diameter, so Find-Min starves exactly as it does on the ring
// (E9) — spatial locality, not turnover, is what kills the complete-graph
// protocol there.
func RunE13ChurnAtScale(o ChurnScaleOptions) []*Table {
	deg := o.Degree
	if deg == 0 {
		deg = 64
	}
	e13 := &Table{
		ID: "E13",
		Title: fmt.Sprintf("Churn at n up to %d: Protocol P on implicit sparse dynamic graphs, expected degree %d",
			o.Ns[len(o.Ns)-1], deg),
		Columns: []string{"process", "n", "churn", "success", "mean rounds", "trials"},
	}
	cell := 0
	run := func(label string, n int, churn float64, trials int, dyn fairgossip.Dynamics) {
		succ, rounds := dynamicsCell(fairgossip.Scenario{
			N: n, Colors: 2, Gamma: o.Gamma,
			Dynamics: dyn,
			Seed:     ConfigSeed(o.Seed, uint64(cell)),
			Workers:  o.Workers,
		}, trials)
		e13.AddRow(label, I(n), F(churn), Pct(succ), F(rounds), I(trials))
		cell++
	}
	for i, n := range o.Ns {
		trials := o.Trials
		if i == len(o.Ns)-1 && o.LargeTrials > 0 {
			trials = o.LargeTrials
		}
		pi := float64(deg) / float64(n-1)
		for _, death := range o.Deaths {
			run("edge-markovian", n, death, trials, fairgossip.Dynamics{
				Kind:  fairgossip.DynamicsEdgeMarkovian,
				Birth: death * pi / (1 - pi), // stationary law pinned at π = deg/(n−1)
				Death: death,
			})
		}
	}
	if o.AltN > 0 {
		run("d-regular rematch", o.AltN, 1, o.Trials, fairgossip.Dynamics{
			Kind: fairgossip.DynamicsDRegular, Degree: deg,
		})
		for _, jitter := range []float64{0.001, 0.01} {
			run("geometric torus", o.AltN, jitter, o.Trials, fairgossip.Dynamics{
				Kind: fairgossip.DynamicsGeometric, Degree: deg, Jitter: jitter,
			})
		}
	}
	e13.AddNote("churn column: per-edge death rate (edge-markovian), 1 = full per-round rematch (d-regular), per-round positional jitter (geometric)")
	e13.AddNote("every cell holds expected degree %d — memory is O(edges), so n = 10⁶ at ~3·10⁷ edges is admissible where the old per-pair engines stopped at n = 32768", deg)
	e13.AddNote("geometric failures are diameter-driven, not churn-driven: r ~ sqrt(deg/n) means Θ(1/r) hops across the torus, the same Find-Min starvation as the ring in E9")
	if o.AltN > 0 {
		// The relaxed-geometric composite (the registered builtin, scaled to
		// this sweep): does E14's loss-tolerant k-of-q verification buy back
		// any of the diameter-driven collapse? Measured here rather than
		// asserted, because the answer — no — is the point: relaxation
		// forgives bounded per-voter violations, and a starved Find-Min is
		// not a bounded violation.
		q := fairgossip.MustRunner(fairgossip.Scenario{
			N: o.AltN, Colors: 2, Gamma: o.Gamma, Seed: 1,
		}).Params().Q
		minVotes := q - 4
		if minVotes < 1 {
			minVotes = 1
		}
		succ, _ := dynamicsCell(fairgossip.Scenario{
			N: o.AltN, Colors: 2, Gamma: o.Gamma,
			Dynamics: fairgossip.Dynamics{Kind: fairgossip.DynamicsGeometric, Degree: deg, Jitter: 0.01},
			Protocol: fairgossip.Protocol{Variant: fairgossip.ProtocolRelaxed, MinVotes: minVotes},
			Seed:     ConfigSeed(o.Seed, uint64(cell)),
			Workers:  o.Workers,
		}, o.Trials)
		e13.AddNote("relaxed-geometric composite (k=%d/%d relaxed verification on the jitter-0.01 torus, n = %d): success %s — relaxation buys back none of the collapse, confirming it is diameter-driven; bounded per-voter forgiveness cannot manufacture the votes a Θ(1/r)-hop graph never delivers", minVotes, q, o.AltN, Pct(succ))
	}
	return []*Table{e13}
}

// dynamicsCell runs one (scenario, trials) cell and returns the success rate
// and mean round count.
func dynamicsCell(sc fairgossip.Scenario, trials int) (successRate, meanRounds float64) {
	results, err := fairgossip.MustRunner(sc).Trials(context.Background(), trials)
	if err != nil {
		panic(err)
	}
	succ, rounds := 0, 0
	for _, res := range results {
		if !res.Failed {
			succ++
		}
		rounds += res.Rounds
	}
	return float64(succ) / float64(trials), float64(rounds) / float64(trials)
}
