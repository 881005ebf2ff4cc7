package scenario

import (
	"testing"

	"repro/internal/trace"
)

// protocolScenarios are the variant settings the determinism tests sweep:
// one per variant, each paired with the adverse condition that exercises its
// distinctive code path — re-sampled targets under churn for live-retarget,
// redelivery and receiver dedup under loss for retransmit, the violation-
// counting verifier under loss for relaxed.
func protocolScenarios() []Scenario {
	return []Scenario{
		{Name: "lr", N: 48, Colors: 2, Seed: 31,
			Dynamics: Dynamics{Kind: DynamicsEdgeMarkovian, Birth: 0.02, Death: 0.08},
			Protocol: Protocol{Variant: ProtocolLiveRetarget}},
		{Name: "rt", N: 48, Colors: 2, Seed: 37,
			Fault:    FaultModel{Drop: 0.05},
			Protocol: Protocol{Variant: ProtocolRetransmit, TTL: 3}},
		{Name: "rx", N: 48, Colors: 2, Seed: 41,
			Fault:    FaultModel{Drop: 0.05},
			Protocol: Protocol{Variant: ProtocolRelaxed, MinVotes: 12}},
	}
}

// TestProtocolTrialsDeterministicAcrossWorkers pins the batch-level
// determinism contract for every variant: results are identical no matter
// how trials are spread over workers. Live-retarget is the variant this
// guards hardest — its send-time target sampling runs in the parallel Act
// phase, so it must draw only from per-agent state.
func TestProtocolTrialsDeterministicAcrossWorkers(t *testing.T) {
	for _, base := range protocolScenarios() {
		want, err := MustRunner(base).Trials(12)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 4} {
			s := base
			s.Workers = workers
			got, err := MustRunner(s).Trials(12)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i].Outcome != want[i].Outcome || got[i].Metrics != want[i].Metrics ||
					got[i].Rounds != want[i].Rounds || got[i].Good != want[i].Good {
					t.Fatalf("%s workers=%d trial %d: variant batch diverged", base.Name, workers, i)
				}
			}
		}
	}
}

// TestProtocolTrialsMatchRunSeed pins that pooled variant batches are
// unobservable against the unpooled single-run path — in particular that the
// retransmit receiver's dedup set and the enlarged voting schedule reset
// cleanly between pooled trials.
func TestProtocolTrialsMatchRunSeed(t *testing.T) {
	for _, s := range protocolScenarios() {
		r := MustRunner(s)
		batch, err := r.Trials(8)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range r.TrialSeeds(8) {
			single, err := MustRunner(s).RunSeed(seed)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i].Outcome != single.Outcome || batch[i].Metrics != single.Metrics ||
				batch[i].Rounds != single.Rounds || batch[i].Good != single.Good {
				t.Fatalf("%s trial %d: pooled variant result diverged from RunSeed", s.Name, i)
			}
		}
	}
}

// TestProtocolStreamMatchesTrials pins Stream ≡ Trials for every variant in
// every chunking, at a parallel worker count.
func TestProtocolStreamMatchesTrials(t *testing.T) {
	for _, base := range protocolScenarios() {
		s := base
		s.Workers = 3
		want, err := MustRunner(s).Trials(9)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 4, 9, 32} {
			next := 0
			err := MustRunner(s).Stream(StreamOptions{Trials: 9, Chunk: chunk},
				func(i int, res *Result) {
					if i != next {
						t.Fatalf("%s chunk %d: observed trial %d, want %d", s.Name, chunk, i, next)
					}
					next++
					if res.Outcome != want[i].Outcome || res.Metrics != want[i].Metrics {
						t.Fatalf("%s chunk %d trial %d: stream diverged from batch", s.Name, chunk, i)
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			if next != 9 {
				t.Fatalf("%s chunk %d: observed %d trials, want 9", s.Name, chunk, next)
			}
		}
	}
}

// TestProtocolTranscriptDeterministicAcrossWorkers pins the strongest form
// of variant determinism: byte-identical run transcripts — every push, pull,
// and drop in the same order — regardless of Act-phase parallelism. For
// live-retarget this proves send-time target sampling is confined to the
// deterministic per-agent stream; for retransmit, that the redelivery rounds
// replay identically.
func TestProtocolTranscriptDeterministicAcrossWorkers(t *testing.T) {
	for _, base := range protocolScenarios() {
		transcript := func(workers int) []trace.Event {
			s := base
			s.Workers = workers
			r := MustRunner(s)
			sink := &trace.Memory{}
			r.Trace = sink
			if _, err := r.RunSeed(99); err != nil {
				t.Fatal(err)
			}
			return sink.Events()
		}
		want := transcript(1)
		if len(want) == 0 {
			t.Fatalf("%s: empty transcript", base.Name)
		}
		for _, workers := range []int{0, 2, 4} {
			got := transcript(workers)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: transcript has %d events, want %d", base.Name, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: event %d = %+v, want %+v", base.Name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRetransmitTrialsAllocBudget pins the retransmit batch path to the same
// absolute allocation budget as the default hot path (TestTrialsAllocBudget):
// the extra TTL·q redelivery rounds reuse each agent's one vote payload and
// the dedup set is an amortized flat slice, so a warmed batch must not
// allocate per pass, per redelivery, or per dedup probe.
func TestRetransmitTrialsAllocBudget(t *testing.T) {
	r := MustRunner(Scenario{N: 256, Colors: 2, Seed: 1, Workers: 1,
		Fault:    FaultModel{Kind: FaultPermanent, Alpha: 0.3},
		Protocol: Protocol{Variant: ProtocolRetransmit, TTL: 3}})
	buf := make([]Result, 8)
	// Warm the worker pool (and each agent's dedup set high-water mark).
	if err := r.TrialsInto(buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := r.TrialsInto(buf); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 1024
	if allocs > budget {
		t.Fatalf("warmed 8-trial retransmit batch allocates %v objects, budget %d: a redelivery or dedup path is allocating per vote", allocs, budget)
	}
}
