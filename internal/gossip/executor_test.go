package gossip

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/topo"
	"repro/internal/trace"
)

// waveCarry carries ids the way the message-passing runtime does, as far as
// the executor can see: every first crossing of the wave is decided before
// any is carried, every target handles its delivery before any reply is
// answered, and the whole wave is settled last, in ids order.
func waveCarry(x *Executor, round int, actions []Action, ids []int32) {
	out := make([]Outcome, len(ids))
	for i, u := range ids {
		out[i].Fate = x.Decide(round, int(u), &actions[u])
	}
	replies := make([]Payload, len(ids))
	for i, u32 := range ids {
		u, a := int(u32), &actions[u32]
		switch {
		case a.Kind == ActPush && out[i].Fate.Carried():
			x.agents[a.To].HandlePush(round, u, a.Payload)
		case a.Kind == ActPull && out[i].Fate == FateSelf:
			x.agents[u].HandlePullReply(round, u, x.agents[u].HandlePull(round, u, a.Payload))
		case a.Kind == ActPull && out[i].Fate == FateSent:
			replies[i] = x.agents[a.To].HandlePull(round, u, a.Payload)
		}
	}
	for i, u32 := range ids {
		u, a := int(u32), &actions[u32]
		if a.Kind != ActPull || out[i].Fate == FateSelf {
			continue
		}
		var reply Payload
		if out[i].Fate == FateSent {
			reply = x.Answer(round, u, a, replies[i], &out[i])
		}
		x.agents[u].HandlePullReply(round, a.To, reply)
	}
	for i, u32 := range ids {
		if a := &actions[u32]; a.Kind == ActPush {
			x.SettlePush(round, int(u32), a, out[i].Fate)
		} else {
			x.SettlePull(round, int(u32), a, out[i])
		}
	}
}

// randomScripts gives every agent a random action per round — idle, push, or
// pull, addressed to a random node, itself, or no node at all — and makes
// every fourth agent refuse pulls.
func randomScripts(n, rounds int, seed uint64) []*scriptAgent {
	r := rng.New(seed)
	ss := newScripted(n)
	for i, s := range ss {
		s.refuse = i%4 == 3
		for k := 0; k < rounds; k++ {
			to := r.Intn(n+2) - 1 // -1 and n are out of range
			if r.Intn(8) == 0 {
				to = i
			}
			switch r.Intn(3) {
			case 0:
				s.script = append(s.script, NoAction())
			case 1:
				s.script = append(s.script, PushTo(to, word{bits: 1 + r.Intn(16)}))
			default:
				s.script = append(s.script, PullFrom(to, word{bits: 1 + r.Intn(16)}))
			}
		}
	}
	return ss
}

// TestWaveCarrierMatchesDirectCarrier pins the claim the runtime rests on:
// decisions do not depend on when they are asked, and settlement reproduces
// the engine's transcript, so a carrier that decides a whole wave up front and
// settles it last leaves the same trace, counters, and agent observations as
// the engine's one-operation-at-a-time carrier — under keyed loss, permanent
// and crash faults, refusals, self-operations, and topology violations.
func TestWaveCarrierMatchesDirectCarrier(t *testing.T) {
	const n, rounds = 12, 40
	notes := map[string]int{}
	for seed := uint64(1); seed <= 4; seed++ {
		config := func(sink trace.Sink, agents []*scriptAgent) (Config, []Agent) {
			faulty, crash := make([]bool, n), make([]bool, n)
			faulty[2], faulty[7], crash[5] = true, true, true
			as := asAgents(agents)
			as[2] = nil // a faulty node may have no agent at all
			return Config{
				Topology: topo.NewRing(n),
				Faulty:   faulty,
				Faults:   CrashSchedule{Mask: crash, Round: rounds / 2},
				Counters: &metrics.Counters{},
				Trace:    sink,
				Workers:  1,
				Drop:     0.2,
				DropRand: rng.New(seed),
			}, as
		}

		directMem, directAgents := &trace.Memory{}, randomScripts(n, rounds, seed)
		cfg, agents := config(directMem, directAgents)
		e := NewEngine(cfg, agents)
		for r := 0; r < rounds; r++ {
			e.Step()
		}

		waveMem, waveAgents := &trace.Memory{}, randomScripts(n, rounds, seed)
		cfg, agents = config(waveMem, waveAgents)
		var x Executor
		x.Init(cfg, agents)
		actions := make([]Action, n)
		var pushes, pulls []int32
		for r := 0; r < rounds; r++ {
			x.Advance(r)
			for i := range actions {
				actions[i] = NoAction()
				if !x.Silent(r, i) {
					actions[i] = x.agents[i].Act(r)
				}
			}
			pushes, pulls = x.Plan(r, actions, pushes, pulls)
			waveCarry(&x, r, actions, pushes)
			waveCarry(&x, r, actions, pulls)
			x.EndRound()
		}

		if got, want := waveMem.Events(), directMem.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: transcripts differ (%d vs %d events)", seed, len(got), len(want))
		}
		if got, want := x.counters.Snapshot(), e.Counters().Snapshot(); got != want {
			t.Fatalf("seed %d: counters differ\nwave:   %+v\ndirect: %+v", seed, got, want)
		}
		if x.Dropped() != e.DroppedActions() {
			t.Fatalf("seed %d: dropped %d vs %d", seed, x.Dropped(), e.DroppedActions())
		}
		for i := range waveAgents {
			w, d := waveAgents[i], directAgents[i]
			if !reflect.DeepEqual(w.pushes, d.pushes) || !reflect.DeepEqual(w.pullSeen, d.pullSeen) || !reflect.DeepEqual(w.replies, d.replies) {
				t.Fatalf("seed %d: agent %d observed differently\nwave:   %v %v %v\ndirect: %v %v %v",
					seed, i, w.pushes, w.pullSeen, w.replies, d.pushes, d.pullSeen, d.replies)
			}
		}
		for _, ev := range directMem.Events() {
			notes[ev.Kind.String()+"/"+ev.Note]++
		}
	}
	for _, want := range []string{"drop/", "push/", "push/lost", "pull/", "pull/query-lost", "pull/no-reply", "pull/refused", "pull/reply-lost"} {
		if notes[want] == 0 {
			t.Fatalf("no %q event in any run — the comparison proved nothing (%v)", want, notes)
		}
	}
}

// TestTransportLossSettlesAsLost pins how a carrier reports a crossing its
// transport lost after the executor sent it: settled as FateLost, the push or
// pull is traced as lost and still paid for, leg by leg, exactly like a keyed
// loss.
func TestTransportLossSettlesAsLost(t *testing.T) {
	ss := newScripted(2)
	mem, counters := &trace.Memory{}, &metrics.Counters{}
	var x Executor
	x.Init(Config{Topology: topo.NewComplete(2), Trace: mem, Counters: counters}, asAgents(ss))
	push, pull := PushTo(1, word{bits: 5}), PullFrom(1, word{bits: 3})

	if f := x.Decide(0, 0, &push); f != FateSent {
		t.Fatalf("push decided %v, want FateSent", f)
	}
	x.SettlePush(0, 0, &push, FateLost)

	query := Outcome{Fate: x.Decide(0, 0, &pull)}
	if query.Reply.Carried() {
		t.Fatal("the reply leg of an unanswered query reads as carried")
	}
	query.Fate = FateLost // the transport lost the query
	x.SettlePull(0, 0, &pull, query)

	reply := Outcome{Fate: x.Decide(0, 0, &pull)}
	if x.Answer(0, 0, &pull, word{bits: 7}, &reply) == nil {
		t.Fatal("a served, undropped reply did not reach the puller")
	}
	reply.Reply = FateLost // the transport lost the reply
	x.SettlePull(0, 0, &pull, reply)
	x.EndRound()

	var notes []string
	for _, ev := range mem.Events() {
		notes = append(notes, ev.Note)
	}
	if want := []string{"lost", "query-lost", "reply-lost"}; !reflect.DeepEqual(notes, want) {
		t.Fatalf("notes %q, want %q", notes, want)
	}
	want := metrics.Snapshot{Rounds: 1, Messages: 4, Bits: 5 + 3 + 3 + 7, MaxMessageBits: 7, Pushes: 1, Pulls: 2, UnansweredPulls: 2}
	if got := counters.Snapshot(); got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
}
