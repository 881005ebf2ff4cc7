package runtime_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	stdruntime "runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/runtime/netconduit"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// transcriptBytes renders a trace into one byte string, so "byte-identical
// transcripts" is literal.
func transcriptBytes(events []trace.Event) []byte {
	var buf bytes.Buffer
	for _, ev := range events {
		fmt.Fprintf(&buf, "%d %v %d->%d %s\n", ev.Round, ev.Kind, ev.From, ev.To, ev.Note)
	}
	return buf.Bytes()
}

// simRun executes one builtin on the simulator at the given engine worker
// count, capturing the transcript.
func simRun(t *testing.T, name string, seed uint64, workers int) (core.RunResult, []byte) {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("builtin %q not registered", name)
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		t.Fatalf("runner(%s): %v", name, err)
	}
	mem := &trace.Memory{}
	cfg := r.RunConfig(seed)
	cfg.Trace = mem
	cfg.Workers = workers
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run(%s): %v", name, err)
	}
	return res, transcriptBytes(mem.Events())
}

// runtimeRun executes the same builtin on the message-passing runtime
// under the deterministic channel conduit.
func runtimeRun(t *testing.T, name string, seed uint64, opts runtime.Options) (core.RunResult, []byte) {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("builtin %q not registered", name)
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		t.Fatalf("runner(%s): %v", name, err)
	}
	mem := &trace.Memory{}
	cfg := r.RunConfig(seed)
	cfg.Trace = mem
	res, _, err := runtime.Execute(context.Background(), cfg, opts)
	if err != nil {
		t.Fatalf("runtime.Execute(%s): %v", name, err)
	}
	return res, transcriptBytes(mem.Events())
}

// equivalenceBuiltins is the pinned scenario table: static topologies, the
// loss and crash fault axes, a dynamic graph, all three protocol variants,
// and the composite variant-on-dynamic-graph scenario.
var equivalenceBuiltins = []string{
	"baseline",
	"lossy-links",
	"crash-mid-voting",
	"churn",
	"edge-markovian",
	"geometric-torus",
	"live-retarget-churn",
	"retransmit-lossy",
	"relaxed-lossy",
	"relaxed-geometric",
	"faulty-third",
}

// socketConduit builds a loopback socket transport for one runtime run,
// failing the test if the listener cannot start. The runtime closes it on
// Shutdown; the cleanup covers a wrapper that hides Close (it is idempotent).
func socketConduit(t *testing.T, network string) runtime.Conduit {
	t.Helper()
	c, err := netconduit.Listen(network)
	if err != nil {
		t.Fatalf("netconduit.Listen(%s): %v", network, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRuntimeTranscriptEquivalence pins the correctness anchor of the whole
// runtime layer: under the deterministic scheduler, the runtime and the
// simulator produce byte-identical trace transcripts and identical results
// for the same seed — at every simulator worker count, since the simulator
// itself is worker-independent, and through every loss-free transport. Loss
// is a keyed decision per crossing, so the lossy builtins lose the same
// messages on both sides although the runtime decides a whole wave at once.
// The coordinator fixes every observable at a barrier, in the simulator's
// order, and a batch keeps per-destination order, so a real TCP or
// Unix-domain loopback socket is just a slower ChannelConduit: same
// deliveries, same order, same bytes.
func TestRuntimeTranscriptEquivalence(t *testing.T) {
	const seed = 42
	for _, name := range equivalenceBuiltins {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel() // each subtest runs its own engines; registry access is read-only
			rtRes, rtTr := runtimeRun(t, name, seed, runtime.Options{})
			for _, workers := range []int{1, 4} {
				simRes, simTr := simRun(t, name, seed, workers)
				if !bytes.Equal(simTr, rtTr) {
					t.Fatalf("workers=%d: transcripts differ (sim %d bytes, runtime %d bytes)\nfirst sim lines:\n%s\nfirst runtime lines:\n%s",
						workers, len(simTr), len(rtTr), head(simTr), head(rtTr))
				}
				simRes.Agents, rtRes.Agents = nil, nil // pool-backed views, not results
				if !reflect.DeepEqual(simRes, rtRes) {
					t.Fatalf("workers=%d: results differ\nsim:     %+v\nruntime: %+v", workers, simRes, rtRes)
				}
			}
			if len(rtTr) == 0 {
				t.Fatal("empty transcript — the comparison proved nothing")
			}
			// The socket rung: every delivery crosses a real OS socket (frame
			// out, mailbox, ack back) and the transcript must not move a byte.
			for _, network := range []string{"unix", "tcp"} {
				sockRes, sockTr := runtimeRun(t, name, seed, runtime.Options{Conduit: socketConduit(t, network)})
				if !bytes.Equal(sockTr, rtTr) {
					t.Fatalf("%s: transcripts differ from channel conduit (%d vs %d bytes)\nfirst channel lines:\n%s\nfirst %s lines:\n%s",
						network, len(rtTr), len(sockTr), head(rtTr), network, head(sockTr))
				}
				sockRes.Agents = nil
				if !reflect.DeepEqual(sockRes, rtRes) {
					t.Fatalf("%s: results differ\nchannel: %+v\nsocket:  %+v", network, rtRes, sockRes)
				}
			}
		})
	}
}

// deliverOnly hides a conduit's batch seam: what is left is a serial
// transport, one Deliver per message, which the coordinator drives through
// its Add = Deliver adapter.
type deliverOnly struct{ runtime.Conduit }

// TestBarrierStress drives the atomic round barrier through the schedules
// that could lose a wake-up or read a result slot early: one, two, and eight
// Ps; capacity-1 mailboxes (the coordinator's Send parks mid-wave) and the
// default; a conduit's own batch (ChannelConduit) and the adapter over a
// serial, Deliver-only conduit. Every cell must reproduce the
// simulator's transcript and result byte for byte over 20 seeds — a lost
// wake-up hangs, an early read diverges, and under -race either is reported
// at its source. CI also runs it by name with -cpu 1,2,8.
func TestBarrierStress(t *testing.T) {
	const n, seeds = 64, 20
	p, err := core.NewParams(n, 2, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	config := func(seed uint64, sink trace.Sink) core.RunConfig {
		return core.RunConfig{Params: p, Colors: core.UniformColors(n, 2), Seed: seed, Trace: sink}
	}
	type run struct {
		res core.RunResult
		tr  []byte
	}
	want := make([]run, seeds)
	for seed := range want {
		mem := &trace.Memory{}
		res, err := core.Run(config(uint64(seed), mem))
		if err != nil {
			t.Fatal(err)
		}
		res.Agents = nil
		want[seed] = run{res, transcriptBytes(mem.Events())}
	}
	conduits := []struct {
		name string
		new  func(seed uint64) runtime.Conduit
	}{
		{"channel", func(uint64) runtime.Conduit { return runtime.ChannelConduit{} }},
		{"serial", func(uint64) runtime.Conduit { return deliverOnly{runtime.ChannelConduit{}} }},
	}
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		for _, mailbox := range []int{1, 4} {
			for _, conduit := range conduits {
				t.Run(fmt.Sprintf("procs=%d/mailbox=%d/%s", procs, mailbox, conduit.name), func(t *testing.T) {
					stdruntime.GOMAXPROCS(procs)
					for seed := range want {
						mem := &trace.Memory{}
						res, _, err := runtime.Execute(context.Background(), config(uint64(seed), mem),
							runtime.Options{Conduit: conduit.new(uint64(seed)), Mailbox: mailbox})
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						res.Agents = nil
						if tr := transcriptBytes(mem.Events()); !bytes.Equal(tr, want[seed].tr) {
							t.Fatalf("seed %d: transcript differs from the simulator's (%d vs %d bytes)\nfirst sim lines:\n%s\nfirst runtime lines:\n%s",
								seed, len(tr), len(want[seed].tr), head(want[seed].tr), head(tr))
						}
						if !reflect.DeepEqual(res, want[seed].res) {
							t.Fatalf("seed %d: results differ\nsim:     %+v\nruntime: %+v", seed, want[seed].res, res)
						}
					}
				})
			}
		}
	}
}

// TestFaultConduitPaths pins that a fault-injecting transport's decisions
// belong to the messages, not to the path that carried them: with transport
// drop over the channel and over a unix socket, two same-seed runs are
// byte-identical, and a run that reaches the fault layer one Deliver at a time
// drops exactly what a run through its batch drops.
func TestFaultConduitPaths(t *testing.T) {
	const seed, drop = 5, 0.05
	for _, network := range []string{"channel", "unix"} {
		t.Run(network, func(t *testing.T) {
			fault := func() runtime.Conduit {
				var inner runtime.Conduit
				if network != "channel" {
					inner = socketConduit(t, network)
				}
				return runtime.NewFaultConduit(inner, seed, drop, 0)
			}
			res, tr := runtimeRun(t, "baseline", seed, runtime.Options{Conduit: fault()})
			res.Agents = nil
			if bytes.Count(tr, []byte("lost\n")) == 0 {
				t.Fatal("the transport dropped nothing — the comparison proves nothing")
			}
			for _, again := range []struct {
				name    string
				conduit runtime.Conduit
			}{
				{"second batched run", fault()},
				{"Deliver-only run", deliverOnly{fault()}},
			} {
				res2, tr2 := runtimeRun(t, "baseline", seed, runtime.Options{Conduit: again.conduit})
				res2.Agents = nil
				if !bytes.Equal(tr2, tr) {
					t.Fatalf("%s: transcript differs (%d vs %d bytes, %d vs %d losses)", again.name,
						len(tr2), len(tr), bytes.Count(tr2, []byte("lost\n")), bytes.Count(tr, []byte("lost\n")))
				}
				if !reflect.DeepEqual(res2, res) {
					t.Fatalf("%s: results differ\nfirst: %+v\nthen:  %+v", again.name, res, res2)
				}
			}
		})
	}
}

// TestRuntimeAccountingMatchesTranscript pins that the executor settles what
// the transport lost exactly as it settles a keyed loss: with both loss
// sources active, every push and pull in the transcript is counted once, every
// event with a note is an unanswered pull, and a pull pays for its reply
// whenever the target served one — answered, or lost on the way back. The
// runtime's own delivery counts agree: a query reached its target exactly
// when the target went on to answer, refuse, or lose the reply, and a reply
// reached its puller exactly when the pull was answered.
func TestRuntimeAccountingMatchesTranscript(t *testing.T) {
	const seed = 5
	for _, network := range []string{"channel", "unix"} {
		t.Run(network, func(t *testing.T) {
			var inner runtime.Conduit
			if network != "channel" {
				inner = socketConduit(t, network)
			}
			sc, _ := scenario.Lookup("lossy-links")
			r, err := scenario.NewRunner(sc)
			if err != nil {
				t.Fatal(err)
			}
			mem := &trace.Memory{}
			cfg := r.RunConfig(seed)
			cfg.Trace = mem
			res, live, err := runtime.Execute(context.Background(), cfg, runtime.Options{Conduit: runtime.NewFaultConduit(inner, seed, 0.1, 0)})
			if err != nil {
				t.Fatal(err)
			}
			var want struct{ pushes, pulls, unanswered, messages int }
			notes := map[trace.Kind]map[string]int{trace.KindPush: {}, trace.KindPull: {}}
			for _, ev := range mem.Events() {
				switch ev.Kind {
				case trace.KindPush:
					want.pushes++
					want.messages++
				case trace.KindPull:
					want.pulls++
					want.messages++ // the query
					if ev.Note != "" {
						want.unanswered++
					}
					if ev.Note == "" || ev.Note == "reply-lost" {
						want.messages++ // the reply the target served
					}
				default:
					continue
				}
				notes[ev.Kind][ev.Note]++
			}
			pulls := notes[trace.KindPull]
			m := res.Metrics
			if m.Pushes != want.pushes || m.Pulls != want.pulls || m.UnansweredPulls != want.unanswered || m.Messages != want.messages {
				t.Fatalf("counters %+v disagree with the transcript %+v", m, want)
			}
			if queries := int64(pulls[""] + pulls["refused"] + pulls["reply-lost"]); live.Queries != queries {
				t.Fatalf("%d queries delivered, the transcript says %d", live.Queries, queries)
			}
			if live.Replies != int64(pulls[""]) {
				t.Fatalf("%d replies delivered, the transcript answers %d pulls", live.Replies, pulls[""])
			}
			if notes[trace.KindPush]["lost"] == 0 || pulls["query-lost"] == 0 || pulls["reply-lost"] == 0 || pulls[""] == 0 {
				t.Fatalf("a loss kind never happened (%v) — the check proved nothing", notes)
			}
		})
	}
}

// TestRuntimeTranscriptReproducible pins that two runtime executions of the
// same seed are byte-identical to each other — determinism does not depend
// on the simulator being around to compare against.
func TestRuntimeTranscriptReproducible(t *testing.T) {
	_, a := runtimeRun(t, "edge-markovian", 7, runtime.Options{})
	_, b := runtimeRun(t, "edge-markovian", 7, runtime.Options{})
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different runtime transcripts")
	}
}

// TestRuntimeLiveReport checks the runtime-layer observables: wall-clock and
// delivery accounting must reflect a real execution.
func TestRuntimeLiveReport(t *testing.T) {
	sc, _ := scenario.Lookup("baseline")
	r, err := scenario.NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, live, err := runtime.Execute(context.Background(), r.RunConfig(3), runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if live.WallClock <= 0 {
		t.Fatalf("wall clock %v", live.WallClock)
	}
	if live.Rounds != res.Rounds {
		t.Fatalf("live rounds %d, result rounds %d", live.Rounds, res.Rounds)
	}
	if live.Delivered == 0 {
		t.Fatal("no deliveries measured")
	}
	if got := live.Pushes + live.Votes + live.Queries + live.Replies; got != live.Delivered {
		t.Fatalf("kind counts sum to %d, delivered %d", got, live.Delivered)
	}
	if live.Votes == 0 {
		t.Fatal("no vote messages classified — the Voting phase crossed no link?")
	}
	if live.LatencyMax < live.LatencyP99 || live.LatencyP99 < live.LatencyP50 {
		t.Fatalf("latency quantiles out of order: p50=%v p99=%v max=%v",
			live.LatencyP50, live.LatencyP99, live.LatencyMax)
	}
}

// TestRuntimeLiveLatency pins that the latency a host measures against its one
// clock reading per batch stays a real, ordered distribution on every
// transport: strictly positive at the median and p50 ≤ p99 ≤ max, through the
// in-process channel hand-over and through a Unix-domain socket.
func TestRuntimeLiveLatency(t *testing.T) {
	sc, _ := scenario.Lookup("baseline")
	r, err := scenario.NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"channel", "unix"} {
		t.Run(transport, func(t *testing.T) {
			var opts runtime.Options
			if transport != "channel" {
				opts.Conduit = socketConduit(t, transport)
			}
			_, live, err := runtime.Execute(context.Background(), r.RunConfig(5), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !(0 < live.LatencyP50 && live.LatencyP50 <= live.LatencyP99 && live.LatencyP99 <= live.LatencyMax) {
				t.Fatalf("latency quantiles not 0 < p50 <= p99 <= max: p50=%v p99=%v max=%v",
					live.LatencyP50, live.LatencyP99, live.LatencyMax)
			}
		})
	}
}

func head(b []byte) []byte {
	const lines = 5
	idx := 0
	for i := 0; i < lines; i++ {
		next := bytes.IndexByte(b[idx:], '\n')
		if next < 0 {
			return b
		}
		idx += next + 1
	}
	return b[:idx]
}
