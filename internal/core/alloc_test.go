package core

import (
	"testing"

	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/topo"
)

// The allocation budgets below pin the hot-path overhaul: the Find-Min adopt
// path must be allocation-free (certificates travel by pointer, not Clone),
// and a pooled cooperative run must stay within a tiny fixed budget so the
// Monte-Carlo batch path cannot silently regress to per-trial rebuilding.

func TestFindMinAdoptAllocFree(t *testing.T) {
	p := MustParams(64, 2, 2)
	net := topo.NewComplete(p.N)
	a := NewAgent(0, p, 0, net, rng.New(1))
	findMin := 2 * p.Q // first Find-Min round

	// Receive one vote so the agent's own k is nonzero and a k=0 certificate
	// strictly wins, then finalize (Act also snapshots the reply cert).
	a.HandlePush(p.Q, 3, Vote{P: p, Value: 7})
	a.Act(findMin)

	smaller := &Certificate{P: p, K: 0, W: []WEntry{{Voter: 3, Value: p.M}}, Color: 1, Owner: 3}
	larger := &Certificate{P: p, K: a.MinCertificate().K, W: a.MinCertificate().W,
		Color: a.MinCertificate().Color, Owner: int32(p.N - 1)}

	// Both the adopting reply (smaller k) and the rejecting reply must not
	// allocate: adoption is a pointer assignment.
	allocs := testing.AllocsPerRun(200, func() {
		a.HandlePullReply(findMin, 3, smaller)
		a.HandlePullReply(findMin, 4, larger)
	})
	if allocs != 0 {
		t.Fatalf("Find-Min adopt path allocates %v objects per reply pair, want 0", allocs)
	}
	if a.MinCertificate() != smaller {
		t.Fatal("agent did not adopt the smaller certificate by pointer")
	}

	// The Coherence-phase coherence check against the adopted (identical
	// pointer) certificate must not allocate either.
	coherence := 3 * p.Q
	allocs = testing.AllocsPerRun(200, func() {
		a.HandlePush(coherence, 5, smaller)
	})
	if allocs != 0 {
		t.Fatalf("Coherence check allocates %v objects per push, want 0", allocs)
	}
	if a.Failed() {
		t.Fatal("coherent push failed the agent")
	}
}

func TestPooledRunMatchesFreshRun(t *testing.T) {
	p := MustParams(96, 3, DefaultGamma)
	colors := UniformColors(p.N, 3)
	faulty := WorstCaseFaults(p.N, 0.25)
	pool := &RunPool{}
	for seed := uint64(1); seed <= 12; seed++ {
		fresh, err := Run(RunConfig{Params: p, Colors: colors, Faulty: faulty, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := Run(RunConfig{Params: p, Colors: colors, Faulty: faulty, Seed: seed, Workers: 1, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Outcome != pooled.Outcome || fresh.Metrics != pooled.Metrics ||
			fresh.Rounds != pooled.Rounds || fresh.Good != pooled.Good {
			t.Fatalf("seed %d: pooled run diverged from fresh run\nfresh:  %+v %+v\npooled: %+v %+v",
				seed, fresh.Outcome, fresh.Metrics, pooled.Outcome, pooled.Metrics)
		}
	}
}

func TestPooledRunSteadyStateAllocs(t *testing.T) {
	p := MustParams(256, 2, DefaultGamma)
	colors := UniformColors(p.N, 2)
	faulty := WorstCaseFaults(p.N, 0.3)
	pool := &RunPool{}
	cfg := RunConfig{Params: p, Colors: colors, Faulty: faulty, Workers: 1, Pool: pool}

	// Warm the pool: first run sizes every buffer.
	cfg.Seed = 1
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	seed := uint64(2)
	allocs := testing.AllocsPerRun(5, func() {
		cfg.Seed = seed
		seed++
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// A full n=256 execution (~100 rounds, ~175 active agents) previously
	// allocated ~50k objects; the pooled budget leaves headroom only for
	// incidental growth (map rehashing, occasional slice growth on an
	// unusually vote-heavy seed, runtime variance across Go versions) —
	// measured ~66 at the time of the overhaul.
	const budget = 128
	if allocs > budget {
		t.Fatalf("pooled steady-state run allocates %v objects, budget %d", allocs, budget)
	}
}

// TestAgentReinitSameParamsBoxesNothing pins the pooled-agent shortcut and
// its guard from the inside: a re-init under unchanged Params allocates
// nothing and leaves every Params-derived payload in step with the new
// intentions, and a re-init under different Params rebuilds all of them.
func TestAgentReinitSameParamsBoxesNothing(t *testing.T) {
	p := MustParams(64, 2, 2)
	net := topo.NewComplete(p.N)
	a := NewAgent(0, p, 0, net, rng.New(1))
	seed := uint64(2)
	if allocs := testing.AllocsPerRun(100, func() {
		a.reset(0, &p, 1, net, seed)
		seed++
	}); allocs != 0 {
		t.Fatalf("same-Params re-init allocates %v objects, want 0", allocs)
	}
	check := func(p Params) {
		t.Helper()
		if a.Params() != p || len(a.intentions) != p.Q || len(a.voteMsgs) != p.Q {
			t.Fatalf("agent holds %v with %d intentions, %d vote buffers; want %v", a.Params(), len(a.intentions), len(a.voteMsgs), p)
		}
		for i, v := range a.voteMsgs {
			if want := (Vote{P: p, Value: a.intentions[i].H, Index: int32(i)}); v != want {
				t.Fatalf("vote buffer %d = %+v, want %+v", i, v, want)
			}
		}
		in, ok := a.intentsMsg.(Intentions)
		if !ok || in.P != p || len(in.Votes) != p.Q || &in.Votes[0] != &a.intentions[0] {
			t.Fatalf("boxed intention answer out of step with the agent's list")
		}
		if a.intentQ != (IntentQuery{P: p}) || a.certQ != (CertQuery{P: p}) {
			t.Fatalf("boxed queries carry stale Params")
		}
	}
	check(p)
	rt, err := p.WithProtocol(Protocol{Variant: ProtocolRetransmit}) // same q, other variant
	if err != nil {
		t.Fatal(err)
	}
	for _, next := range []Params{rt, p, MustParams(32, 2, 1), MustParams(64, 2, 3), p} {
		a.reset(0, &next, 1, net, seed)
		check(next)
	}
}

// TestAsyncAgentActivationAllocFree pins the sequential-model agent to the
// sync agent's payload discipline: queries, votes and the intention answer
// are built once at construction, so no activation and no answered pull
// allocates.
func TestAsyncAgentActivationAllocFree(t *testing.T) {
	p := MustParams(64, 2, 40) // q = 240: every phase outlasts AllocsPerRun's 101 calls
	net := topo.NewComplete(p.N)
	a := NewAsyncAgent(0, p, 0, net, rng.New(1))
	var intentQ, certQ gossip.Payload = IntentQuery{P: p}, CertQuery{P: p}
	pin := func(phase asyncPhase, f func()) {
		t.Helper()
		for a.localPhase() != phase {
			a.Act(0)
		}
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Fatalf("phase %d: %v allocations per activation, want 0", phase, allocs)
		}
		if a.localPhase() != phase {
			t.Fatalf("phase %d ended inside the measurement", phase)
		}
	}
	pin(asyncCommitment, func() {
		a.Act(0)
		a.HandlePull(0, 1, intentQ)
	})
	pin(asyncVoting, func() { a.Act(0) })
	pin(asyncFindMin, func() {
		a.Act(0)
		a.HandlePull(0, 1, certQ)
	})
	pin(asyncCoherence, func() { a.Act(0) })
}
