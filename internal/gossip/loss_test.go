package gossip

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
)

// crossing is one link crossing's identity.
type crossing struct {
	round, from, to int
	leg             Leg
}

// pullCrossings enumerates count distinct pulls' crossings on the given leg:
// puller u, target v, walking rounds, with the reply leg's direction reversed.
func pullCrossings(count int, leg Leg) []crossing {
	const n = 64
	out := make([]crossing, count)
	for i := range out {
		u, v := i%n, (i/n+i+1)%n
		if leg == LegReply {
			u, v = v, u
		}
		out[i] = crossing{round: i / n, from: u, to: v, leg: leg}
	}
	return out
}

// binomialBound is 4.5 standard deviations of a Binomial(n, p) share — loose
// enough never to fire on a fair coin (≈7·10⁻⁶ two-sided), tight enough to
// catch a decision that ignores part of the crossing's identity.
func binomialBound(n int, p float64) float64 {
	return 4.5 * math.Sqrt(p*(1-p)/float64(n))
}

// TestLossShare pins the decision's law: over 2·10⁵ distinct crossings of each
// leg, the lost share is within a binomial bound of drop.
func TestLossShare(t *testing.T) {
	const count = 200000
	for _, drop := range []float64{0.01, 0.05, 0.3, 0.9} {
		l := NewLoss(drop, rng.New(7))
		for _, leg := range []Leg{LegPush, LegQuery, LegReply} {
			lost := 0
			for _, c := range pullCrossings(count, leg) {
				if l.Lost(c.round, c.from, c.to, c.leg) {
					lost++
				}
			}
			if share := float64(lost) / count; math.Abs(share-drop) > binomialBound(count, drop) {
				t.Errorf("drop %v leg %d: lost share %.5f, want within %.5f", drop, leg, share, binomialBound(count, drop))
			}
		}
	}
}

// TestLossLegsIndependent pins that the query and the reply of one pull are
// separate coins: over 2·10⁵ pulls, both are lost in about drop² of them.
func TestLossLegsIndependent(t *testing.T) {
	const count, drop = 200000, 0.3
	l := NewLoss(drop, rng.New(11))
	queries, replies := pullCrossings(count, LegQuery), pullCrossings(count, LegReply)
	both := 0
	for i := range queries {
		q, r := queries[i], replies[i]
		if q.from != r.to || q.to != r.from || q.round != r.round {
			t.Fatalf("pull %d: legs %+v and %+v are not one pull's", i, q, r)
		}
		if l.Lost(q.round, q.from, q.to, q.leg) && l.Lost(r.round, r.from, r.to, r.leg) {
			both++
		}
	}
	if share := float64(both) / count; math.Abs(share-drop*drop) > binomialBound(count, drop*drop) {
		t.Fatalf("query and reply both lost in %.5f of pulls, want %.5f ± %.5f", share, drop*drop, binomialBound(count, drop*drop))
	}
}

// TestLossIsAFunctionOfTheCrossing pins what deleting the loss stream bought:
// the answer for a crossing does not depend on what was asked before it, how
// often, or through which copy of the decision — only on the key.
func TestLossIsAFunctionOfTheCrossing(t *testing.T) {
	const drop = 0.2
	src := rng.New(3)
	l := NewLoss(drop, src)
	cs := pullCrossings(5000, LegQuery)
	want := make([]bool, len(cs))
	for i, c := range cs {
		want[i] = l.Lost(c.round, c.from, c.to, c.leg)
	}
	again := NewLoss(drop, src) // keying reads the source; it must not advance it
	for i := len(cs) - 1; i >= 0; i-- {
		c := cs[i]
		if l.Lost(c.round, c.from, c.to, c.leg) != want[i] || again.Lost(c.round, c.from, c.to, c.leg) != want[i] {
			t.Fatalf("crossing %+v: answer changed when asked again, in reverse", c)
		}
	}
	if src.Uint64() != rng.New(3).Uint64() {
		t.Fatal("NewLoss advanced its source")
	}
	other := NewLoss(drop, rng.New(4))
	differs := 0
	for i, c := range cs {
		if other.Lost(c.round, c.from, c.to, c.leg) != want[i] {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("a different seed lost exactly the same crossings")
	}
}

// TestLossZeroDropNeverConsultsTheKey pins the lossless fast path: drop == 0
// needs no source, keeps no key, and loses nothing.
func TestLossZeroDropNeverConsultsTheKey(t *testing.T) {
	for name, l := range map[string]Loss{
		"zero value":     {},
		"no source":      NewLoss(0, nil),
		"unused source":  NewLoss(0, rng.New(1)),
		"keyed directly": KeyedLoss(0, 0xfeed),
	} {
		if name != "keyed directly" && l != (Loss{}) {
			t.Errorf("%s: drop 0 kept state %+v", name, l)
		}
		for _, c := range pullCrossings(1000, LegPush) {
			if l.Lost(c.round, c.from, c.to, c.leg) {
				t.Fatalf("%s: drop 0 lost crossing %+v", name, c)
			}
		}
	}
	for name, bad := range map[string]func(){
		"negative":  func() { NewLoss(-0.1, rng.New(1)) },
		"certain":   func() { NewLoss(1, rng.New(1)) },
		"no source": func() { NewLoss(0.1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLoss %s did not panic", name)
				}
			}()
			bad()
		}()
	}
}

// TestEnginesLoseTheKeyedCrossings pins that both engines decide loss through
// Loss on the crossing's own identity — the round (the tick, for the
// sequential engine), the two endpoints, the leg: every push and pull in the
// transcript carries exactly the note the decision dictates.
func TestEnginesLoseTheKeyedCrossings(t *testing.T) {
	const n, rounds, drop, seed = 16, 60, 0.25, 21
	script := func() []Agent {
		ss := newScripted(n)
		for i := range ss {
			for r := 0; r < rounds*n; r++ {
				to := (i + 1 + r%(n-1)) % n
				if (i+r)%2 == 0 {
					ss[i].script = append(ss[i].script, PushTo(to, word{bits: 8}))
				} else {
					ss[i].script = append(ss[i].script, PullFrom(to, word{bits: 4}))
				}
			}
		}
		return asAgents(ss)
	}
	config := func(sink trace.Sink) Config {
		return Config{Topology: topo.NewComplete(n), Trace: sink, Workers: 1, Drop: drop, DropRand: rng.New(seed)}
	}
	want := NewLoss(drop, rng.New(seed))
	check := func(name string, events []trace.Event) {
		notes := map[string]int{}
		for _, ev := range events {
			note := ""
			switch {
			case ev.Kind == trace.KindPush && want.Lost(ev.Round, ev.From, ev.To, LegPush):
				note = "lost"
			case ev.Kind == trace.KindPull && want.Lost(ev.Round, ev.From, ev.To, LegQuery):
				note = "query-lost"
			case ev.Kind == trace.KindPull && want.Lost(ev.Round, ev.To, ev.From, LegReply):
				note = "reply-lost"
			}
			if ev.Note != note {
				t.Fatalf("%s: round %d %v %d->%d noted %q, the keyed decision says %q", name, ev.Round, ev.Kind, ev.From, ev.To, ev.Note, note)
			}
			notes[note]++
		}
		for _, note := range []string{"", "lost", "query-lost", "reply-lost"} {
			if notes[note] == 0 {
				t.Fatalf("%s: no event noted %q in %d — the check proved nothing", name, note, len(events))
			}
		}
	}

	mem := &trace.Memory{}
	e := NewEngine(config(mem), script())
	for r := 0; r < rounds; r++ {
		e.Step()
	}
	check("Engine", mem.Events())

	mem = &trace.Memory{}
	a := NewAsyncEngine(config(mem), script(), rng.New(5))
	for r := 0; r < rounds*n; r++ {
		a.Tick()
	}
	check("AsyncEngine", mem.Events())
}
