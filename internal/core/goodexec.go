package core

import (
	"math"
	"slices"
)

// GoodExecution reports whether an execution satisfied the three properties
// of Definition 2, which Lemma 3 proves hold w.h.p. when at most αn agents
// are faulty:
//
//  1. every active agent received Θ(log n) votes,
//  2. the kᵤ values are pairwise distinct (so k_min is unique),
//  3. after Find-Min every active agent holds the same minimal certificate.
//
// The bounds for property 1 are the concrete Chernoff constants used in the
// Lemma 3 sketch: each active agent receives q·|A| independent u.a.r. votes
// in expectation |A|·q/n, so we test against [expected/4, 4·expected], a
// generous (β₁, β₂) pair that a good execution should satisfy easily.
type GoodExecution struct {
	VoteLowerOK  bool // every active agent got ≥ expected/4 votes
	VoteUpperOK  bool // every active agent got ≤ 4·expected votes
	DistinctK    bool // property 2
	CertsAgree   bool // property 3
	MinVotes     int  // smallest vote count over active agents
	MaxVotes     int  // largest vote count over active agents
	ActiveAgents int
}

// Good reports whether all properties hold.
func (g GoodExecution) Good() bool {
	return g.VoteLowerOK && g.VoteUpperOK && g.DistinctK && g.CertsAgree
}

// CheckGoodExecution inspects a finished execution's honest agents. The
// agents slice must contain the honest (protocol-following) active agents;
// deviating coalition members are excluded because Definition 5 restates the
// properties for them separately.
func CheckGoodExecution(p Params, agents []*Agent) GoodExecution {
	var ks []uint64
	return checkGoodExecution(&p, agents, &ks)
}

// checkGoodExecution is CheckGoodExecution with a caller-owned buffer for
// the kᵤ values: property 2 is checked by sorting them and comparing
// neighbours, so a pooled run (RunPool.ks) checks it without allocating.
func checkGoodExecution(p *Params, agents []*Agent, ks *[]uint64) GoodExecution {
	g := GoodExecution{
		VoteLowerOK: true,
		VoteUpperOK: true,
		DistinctK:   true,
		CertsAgree:  true,
		MinVotes:    math.MaxInt,
	}
	g.ActiveAgents = len(agents)
	if len(agents) == 0 {
		g.MinVotes = 0
		return g
	}
	expected := float64(len(agents)) * float64(p.Q) / float64(p.N)
	lower := int(math.Floor(expected / 4))
	upper := int(math.Ceil(expected * 4))

	kbuf := (*ks)[:0]
	var ref *Certificate
	for _, a := range agents {
		nv := len(a.VotesReceived())
		if nv < g.MinVotes {
			g.MinVotes = nv
		}
		if nv > g.MaxVotes {
			g.MaxVotes = nv
		}
		if nv < lower {
			g.VoteLowerOK = false
		}
		if nv > upper {
			g.VoteUpperOK = false
		}
		kbuf = append(kbuf, a.K())
		mc := a.MinCertificate()
		if ref == nil {
			ref = mc
			continue
		}
		if !ref.Equal(mc) {
			g.CertsAgree = false
		}
	}
	slices.Sort(kbuf)
	for i := 1; i < len(kbuf); i++ {
		if kbuf[i] == kbuf[i-1] {
			g.DistinctK = false
			break
		}
	}
	*ks = kbuf
	return g
}
