package sim

import (
	"repro/fairgossip"
	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/runtime/netconduit"
	"repro/internal/theory"
)

// RunT0Predictions emits T0: the protocol parameters and the paper's
// analytical predictions next to single-run measurements — a reference sheet
// for reading T1–T5. It also cross-checks the simulator's declared message
// sizes against the bytes a socket sends (netconduit.PayloadBits).
func RunT0Predictions(o PerfOptions) []*Table {
	t0 := &Table{
		ID:    "T0",
		Title: "Parameters and analytical predictions (γ = " + F(o.Gamma) + ")",
		Columns: []string{"n", "q", "rounds=4q+1", "E[votes]", "Pr[G] bound",
			"maxMsg bound(bits)", "maxMsg measured", "maxMsg socket", "msgs bound", "msgs measured"},
	}
	for _, n := range o.Sizes {
		p := core.MustParams(n, 2, o.Gamma)
		// The socket cross-check needs the agents' actual certificates, so this
		// table runs through the bridge (public scenario, internal result).
		runner, err := bridge.NewRunner(fairgossip.Scenario{
			N: n, Colors: 2, Gamma: o.Gamma, Seed: o.Seed, Workers: o.Workers,
		})
		if err != nil {
			panic(err)
		}
		res, err := runner.Run()
		if err != nil {
			panic(err)
		}
		// Encode the largest certificate actually produced to get the bytes
		// the socket sends.
		socketBits := 0
		for _, a := range res.Agents {
			if c := a.MinCertificate(); c != nil {
				b, err := netconduit.PayloadBits(c)
				if err != nil {
					panic(err)
				}
				socketBits = max(socketBits, b)
			}
		}
		t0.AddRow(I(n), I(p.Q), I(theory.Rounds(p)),
			F(theory.ExpectedVotes(p, n)),
			F(theory.GoodExecutionBound(p, n)),
			I(theory.MaxMessageBits(p, n)),
			I(res.Metrics.MaxMessageBits),
			I(socketBits),
			I(theory.MessageUpperBound(p, n)),
			I(res.Metrics.Messages))
	}
	t0.AddNote("Pr[G] bound is the Lemma 3 union bound (loose); measured success rates in T5 must exceed it")
	t0.AddNote("'socket' is the bits of the largest minimal certificate as the socket sends it (v3 fixed-width encoding)")
	t0.AddNote("'measured' is SizeBits, the paper's log-width accounting of the largest message")
	t0.AddNote("for one certificate of ⌈4·E[votes]⌉ votes at γ = 3, socket : SizeBits falls with n: 4.08× at n = 2^6, 2.43× at 2^10, 1.51× at 2^16, 1.21× at 2^20")
	return []*Table{t0}
}
