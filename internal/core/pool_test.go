package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// agentsDigest renders everything a finished run's honest agents expose, so
// two runs can be compared agent for agent and vote for vote.
func agentsDigest(agents []*Agent) string {
	var sb strings.Builder
	for _, a := range agents {
		fmt.Fprintf(&sb, "%d %v H=%v W=%v out=%d failed=%v log=%d",
			a.ID(), a.Params(), a.Intentions(), a.VotesReceived(), a.FinalColor(), a.Failed(), a.Log().Size())
		if c := a.MinCertificate(); c != nil {
			fmt.Fprintf(&sb, " min=%v/%v/%v", c.P, c, c.W)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestRunPoolParamsSwitchMatchesFreshRun guards the pooled-agent shortcut: an
// agent re-run under the Params of its previous run keeps its vote buffers'
// P and its boxed payloads, so the one way to get it wrong is a pool reused
// under different Params carrying the old ones along. Each pair runs A, B, A
// through one pool and requires every run — result, agent state and trace —
// to equal a fresh, unpooled run's.
func TestRunPoolParamsSwitchMatchesFreshRun(t *testing.T) {
	with := func(p Params, proto Protocol) Params {
		t.Helper()
		out, err := p.WithProtocol(proto)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := MustParams(48, 3, DefaultGamma)
	pairs := []struct {
		name string
		a, b Params
	}{
		{"longer phases", base, MustParams(48, 3, 5)},
		{"shorter phases", base, MustParams(48, 3, 1.5)},
		{"fewer nodes", base, MustParams(24, 3, DefaultGamma)},
		{"more nodes and colors", base, MustParams(64, 4, DefaultGamma)},
		{"baseline to retransmit", base, with(base, Protocol{Variant: ProtocolRetransmit, Passes: 3})},
		{"retransmit to baseline", with(base, Protocol{Variant: ProtocolRetransmit}), base},
		{"retransmit passes", with(base, Protocol{Variant: ProtocolRetransmit, Passes: 2}), with(base, Protocol{Variant: ProtocolRetransmit, Passes: 4})},
		{"baseline to live-retarget", base, with(base, Protocol{Variant: ProtocolLiveRetarget})},
		{"baseline to relaxed", base, with(base, Protocol{Variant: ProtocolRelaxed, MinVotes: base.Q - 2})},
	}
	for _, pair := range pairs {
		t.Run(pair.name, func(t *testing.T) {
			pool := &RunPool{}
			for i, p := range []Params{pair.a, pair.b, pair.a} {
				run := func(pool *RunPool) (RunResult, []trace.Event) {
					var sink trace.Memory
					res, err := Run(RunConfig{
						Params: p, Colors: UniformColors(p.N, p.NumColors), Faulty: WorstCaseFaults(p.N, 0.2),
						Seed: uint64(10 + i), Drop: 0.01, Workers: 1, Trace: &sink, Pool: pool,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res, sink.Events()
				}
				fresh, freshTrace := run(nil)
				pooled, pooledTrace := run(pool)
				if fresh.Outcome != pooled.Outcome || fresh.Rounds != pooled.Rounds ||
					fresh.Metrics != pooled.Metrics || fresh.Good != pooled.Good {
					t.Fatalf("run %d: pooled result diverged\nfresh:  %+v %+v\npooled: %+v %+v",
						i, fresh.Outcome, fresh.Metrics, pooled.Outcome, pooled.Metrics)
				}
				if f, p := agentsDigest(fresh.Agents), agentsDigest(pooled.Agents); f != p {
					t.Fatalf("run %d: pooled agents diverged\nfresh:\n%s\npooled:\n%s", i, f, p)
				}
				if !reflect.DeepEqual(freshTrace, pooledTrace) {
					t.Fatalf("run %d: pooled trace diverged (%d vs %d events)", i, len(freshTrace), len(pooledTrace))
				}
			}
		})
	}
}
