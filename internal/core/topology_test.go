package core

import (
	"testing"

	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/topo"
)

// TestRunOnRegularGraphAgreesOnOneCertificate drives the agents by hand on a
// random 8-regular graph: sampling peers from the neighbor set must never
// produce an action the engine drops, and the sparse graph must still carry
// the minimal certificate to everyone.
func TestRunOnRegularGraphAgreesOnOneCertificate(t *testing.T) {
	const n = 64
	p := MustParams(n, 2, DefaultGamma)
	colors := SplitColors(n, 0.5)
	net := topo.NewRandomRegular(n, 8, 9)
	master := rng.New(12345)
	agents := make([]gossip.Agent, n)
	honest := make([]*Agent, n)
	for i := range honest {
		honest[i] = NewAgent(i, p, colors[i], net, master.Split(uint64(i)))
		agents[i] = honest[i]
	}
	eng := gossip.NewEngine(gossip.Config{Topology: net, Workers: 1}, agents)
	eng.Run(p.TotalRounds() + 1)
	if d := eng.DroppedActions(); d != 0 {
		t.Fatalf("%d actions dropped on the 8-regular graph, want 0", d)
	}
	min := honest[0].MinCertificate()
	for _, a := range honest {
		if a.Failed() {
			t.Fatalf("agent %d failed", a.ID())
		}
		if !a.MinCertificate().Equal(min) {
			t.Fatalf("agent %d holds %v, agent 0 holds %v", a.ID(), a.MinCertificate(), min)
		}
		if err := VerifyCertificate(p, a.MinCertificate(), a.Log()); err != nil {
			t.Fatalf("agent %d: %v", a.ID(), err)
		}
	}
}
