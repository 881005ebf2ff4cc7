package runtime

import (
	"context"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
)

func goroutines() int { return stdruntime.NumGoroutine() }

// waitForGoroutines polls until the goroutine count drops back to at most
// want, failing the test after a generous deadline — the manual goleak
// bracket for shutdown tests.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if goroutines() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, want <= %d", goroutines(), want)
}

// testConfig builds a small prepared run for direct Runtime tests.
func testConfig(t *testing.T, n int, seed uint64) *core.RunSetup {
	t.Helper()
	p, err := core.NewParams(n, 2, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := core.PrepareRun(core.RunConfig{
		Params: p,
		Colors: core.UniformColors(n, 2),
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return setup
}

func runtimeFor(setup *core.RunSetup, opts Options) *Runtime {
	return New(Config{
		Topology: setup.Net,
		Faulty:   setup.Faulty,
		Faults:   setup.Faults,
		Counters: setup.Counters,
		Trace:    setup.Trace,
		Drop:     setup.Drop,
		DropRand: setup.DropRand,
		Conduit:  opts.Conduit,
		Mailbox:  opts.Mailbox,
	}, setup.Agents)
}

// queued reports how many accepted messages wait on h's queue.
func queued(h *host) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// TestMailboxBackpressure pins the bounded-mailbox contract: Send fills the
// queue of a host that is not draining, then blocks — and unblocks, with a
// false return, when the runtime shuts down.
func TestMailboxBackpressure(t *testing.T) {
	bar := newBarrier()
	// The host goroutine is deliberately not started: nothing drains.
	h := newHost(bar, 2)
	n := &Node{id: 0, host: h}
	for i := 0; i < 2; i++ {
		if !n.Send(Message{Kind: MsgPush, Round: i}) {
			t.Fatalf("send %d into empty mailbox failed", i)
		}
	}
	blocked := make(chan bool, 1)
	go func() { blocked <- n.Send(Message{Kind: MsgPush, Round: 2}) }()
	select {
	case <-blocked:
		t.Fatal("send into a full mailbox did not block")
	case <-time.After(50 * time.Millisecond):
		// Blocked, as required: the queue bound is the backpressure boundary.
	}
	bar.halt()
	select {
	case ok := <-blocked:
		if ok {
			t.Fatal("blocked send reported delivery after shutdown")
		}
	case <-time.After(time.Second):
		t.Fatal("blocked send did not unblock on shutdown")
	}
	if got := queued(h); got != 2 {
		t.Fatalf("mailbox holds %d messages, want the 2 accepted", got)
	}
}

// TestShutdownMidRun pins context cancellation: a run cancelled between
// rounds returns the context error, a partial round count, and leaks no
// goroutines.
func TestShutdownMidRun(t *testing.T) {
	before := goroutines()
	setup := testConfig(t, 64, 11)
	rt := runtimeFor(setup, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	// Run a few rounds, then cancel from a racing goroutine while the
	// coordinator is mid-flight.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	rounds, err := rt.Run(ctx, setup.MaxRounds)
	wg.Wait()
	rt.Shutdown()
	if err == nil {
		// The run may legitimately finish before the cancel lands on a fast
		// machine; what matters is that cancellation mid-run is clean when it
		// does land. Force the deterministic variant below in that case.
		t.Logf("run finished in %d rounds before cancellation", rounds)
	} else if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	} else if rounds >= setup.MaxRounds {
		t.Fatalf("cancelled run executed all %d rounds", rounds)
	}
	waitForGoroutines(t, before)

	// Deterministic variant: a context cancelled before the run starts must
	// execute zero rounds.
	before = goroutines()
	setup = testConfig(t, 64, 12)
	rt = runtimeFor(setup, Options{})
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	rounds, err = rt.Run(ctx, setup.MaxRounds)
	rt.Shutdown()
	if err != context.Canceled || rounds != 0 {
		t.Fatalf("pre-cancelled run: rounds=%d err=%v, want 0, context.Canceled", rounds, err)
	}
	waitForGoroutines(t, before)
}

// TestShutdownIdempotent pins that Shutdown is safe to call twice and that a
// completed Execute leaves no goroutines behind.
func TestShutdownIdempotent(t *testing.T) {
	before := goroutines()
	setup := testConfig(t, 32, 5)
	rt := runtimeFor(setup, Options{})
	if _, err := rt.Run(context.Background(), setup.MaxRounds); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	rt.Shutdown()
	waitForGoroutines(t, before)
}

// TestSendAfterShutdown pins the conduit-facing contract: delivery to a node
// of a stopped runtime reports false instead of blocking forever.
func TestSendAfterShutdown(t *testing.T) {
	setup := testConfig(t, 32, 6)
	rt := runtimeFor(setup, Options{})
	rt.Shutdown()
	if (ChannelConduit{}).Deliver(rt.Node(0), Message{Kind: MsgPush}) {
		t.Fatal("delivery to a stopped node reported success")
	}
}

// TestFaultConduitDeterminism pins that the fault-injecting transport is as
// reproducible as the clean one: same seed, same drops, same result.
func TestFaultConduitDeterminism(t *testing.T) {
	results := make([]core.RunResult, 2)
	for i := range results {
		setup := testConfig(t, 64, 21)
		rt := runtimeFor(setup, Options{Conduit: NewFaultConduit(nil, 21, 0.05, 0)})
		rounds, err := rt.Run(context.Background(), setup.MaxRounds)
		rt.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		results[i] = setup.Result(rounds)
		results[i].Agents = nil
	}
	if results[0].Rounds != results[1].Rounds ||
		results[0].Metrics != results[1].Metrics ||
		results[0].Outcome != results[1].Outcome {
		t.Fatalf("fault-conduit runs diverged:\n%+v\n%+v", results[0], results[1])
	}
}

// TestFaultConduitDrops pins that transport drops actually remove messages:
// with a heavy drop rate the delivered count falls well below the loss-free
// run's.
func TestFaultConduitDrops(t *testing.T) {
	delivered := func(c Conduit) int64 {
		setup := testConfig(t, 64, 9)
		rt := runtimeFor(setup, Options{Conduit: c})
		if _, err := rt.Run(context.Background(), setup.MaxRounds); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		return rt.Live(0).Delivered
	}
	clean := delivered(nil)
	lossy := delivered(NewFaultConduit(nil, 9, 0.3, 0))
	if clean == 0 {
		t.Fatal("clean run delivered nothing")
	}
	if lossy >= clean {
		t.Fatalf("30%% transport drop delivered %d >= clean %d", lossy, clean)
	}
}

// TestFaultConduitJitter pins that jitter shows up in the measured latency
// distribution: with a 200µs jitter ceiling the median delivery must be
// slower than the in-process channel handoff ever is. A jittered wave must
// also reach the mailbox message by message, not at Flush: a message staged
// behind later messages' delays would have them counted as its latency.
func TestFaultConduitJitter(t *testing.T) {
	h := newHost(newBarrier(), 4) // not started: nothing drains
	b := NewFaultConduit(nil, 13, 0, time.Microsecond).NewBatch()
	b.Add(&Node{id: 0, host: h}, Message{Kind: MsgPush, From: 1, SentAt: time.Now()})
	if got := queued(h); got != 1 {
		t.Fatalf("a jittered message waits in the batch (%d in the mailbox before Flush)", got)
	}

	setup := testConfig(t, 16, 13)
	rt := runtimeFor(setup, Options{Conduit: NewFaultConduit(nil, 13, 0, 200*time.Microsecond)})
	if _, err := rt.Run(context.Background(), setup.MaxRounds); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	live := rt.Live(time.Millisecond)
	if live.Delivered == 0 {
		t.Fatal("no deliveries")
	}
	if live.LatencyP50 < 10*time.Microsecond {
		t.Fatalf("median latency %v under a 200µs jitter — jitter not applied", live.LatencyP50)
	}
}

// TestFaultConduitConcurrentDeliver exercises the Conduit concurrency
// contract on the fault layer under the race detector: many goroutines
// deciding drop and jitter at once. The decisions are keyed, so the conduit
// has no state for them to race on — and every worker, sending the same 200
// messages, must see the same 200 fates.
func TestFaultConduitConcurrentDeliver(t *testing.T) {
	const workers, each = 8, 200
	// A bare node on a bare host whose queue is sized for every message:
	// nothing drains, and no Send ever blocks, so the test isolates the
	// conduit's own state.
	h := newHost(newBarrier(), workers*each)
	n := &Node{id: 0, host: h}
	c := NewFaultConduit(nil, 1, 0.3, 50*time.Microsecond)
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if c.Deliver(n, Message{Kind: MsgPush, Round: i, From: 1}) {
					delivered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	got := delivered.Load()
	if got != int64(queued(h)) {
		t.Fatalf("delivered %d, mailbox holds %d", got, queued(h))
	}
	// With a 30% drop rate both outcomes must occur among 200 crossings, and
	// identically for each of the workers that asked about them.
	if got == 0 || got == workers*each || got%workers != 0 {
		t.Fatalf("delivered %d of %d — drop decisions degenerate or caller-dependent", got, workers*each)
	}
}

// TestBackpressureDrain pins the other half of the mailbox contract: a
// draining node accepts an arbitrary stream through a small mailbox.
func TestBackpressureDrain(t *testing.T) {
	setup := testConfig(t, 32, 3)
	rt := runtimeFor(setup, Options{Mailbox: 1})
	rounds, err := rt.Run(context.Background(), setup.MaxRounds)
	rt.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("no rounds ran")
	}
	res := setup.Result(rounds)
	if res.Outcome.Failed {
		t.Fatal("run through capacity-1 mailboxes failed to agree")
	}
}

// gatedAgent blocks the chosen handler, from the given round on, until
// release is closed, announcing on entered that a host goroutine is now stuck
// inside it — the way tests hold hosts mid-message while something else
// happens.
type gatedAgent struct {
	gossip.Agent
	round   int
	onPush  bool // gate HandlePush instead of Act
	entered chan<- struct{}
	release <-chan struct{}
}

func (g *gatedAgent) gate(round int) {
	if round >= g.round {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	}
}

func (g *gatedAgent) Act(round int) gossip.Action {
	if !g.onPush {
		g.gate(round)
	}
	return g.Agent.Act(round)
}

func (g *gatedAgent) HandlePush(round, from int, p gossip.Payload) {
	if g.onPush {
		g.gate(round)
	}
	g.Agent.HandlePush(round, from, p)
}

// waitStopped spins until Shutdown has raised the barrier's flag.
func waitStopped(t *testing.T, rt *Runtime) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !rt.bar.stopped.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never raised the stopped flag")
		}
		stdruntime.Gosched()
	}
}

// TestShutdownDuringRun pins that a Shutdown from a second goroutine while
// the coordinator is inside a round — parked on the Act barrier, or in a
// push wave whose targets sit behind capacity-1 mailboxes — makes Run return
// ErrShutdown promptly instead of waiting forever for completions that will
// never come, and leaves no goroutine behind.
func TestShutdownDuringRun(t *testing.T) {
	for _, onPush := range []bool{false, true} {
		name := "act-barrier"
		if onPush {
			name = "push-wave"
		}
		t.Run(name, func(t *testing.T) {
			before := goroutines()
			setup := testConfig(t, 64, 17)
			entered := make(chan struct{}, 1)
			release := make(chan struct{})
			agents := append([]gossip.Agent(nil), setup.Agents...)
			for i, a := range agents {
				// Every node gates, so whichever handler runs first from
				// round 2 on holds its round open.
				agents[i] = &gatedAgent{Agent: a, round: 2, onPush: onPush, entered: entered, release: release}
			}
			rt := New(Config{Topology: setup.Net, Counters: setup.Counters, Mailbox: 1}, agents)

			type result struct {
				rounds int
				err    error
			}
			ran := make(chan result, 1)
			go func() {
				rounds, err := rt.Run(context.Background(), setup.MaxRounds)
				ran <- result{rounds, err}
			}()
			<-entered // a node is stuck mid-round: Run cannot finish the round
			shut := make(chan struct{})
			go func() {
				rt.Shutdown()
				close(shut)
			}()
			waitStopped(t, rt)
			select {
			case r := <-ran:
				if r.err != ErrShutdown || r.rounds < 2 || r.rounds >= setup.MaxRounds {
					t.Fatalf("Run = (%d, %v), want ErrShutdown after 2 or more complete rounds", r.rounds, r.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run still blocked after Shutdown")
			}
			close(release) // let the stuck handlers return; their nodes then exit
			select {
			case <-shut:
			case <-time.After(5 * time.Second):
				t.Fatal("Shutdown did not return once the handlers did")
			}
			waitForGoroutines(t, before)
		})
	}
}

// TestShutdownFullMailboxes pins shutdown at its worst: every host stuck
// inside a handler with its queue full behind it, so nothing can be enqueued
// anywhere. Shutdown must still return once the handlers do — each host sees
// the flag before its next message and abandons the rest — and leave no
// goroutine behind.
func TestShutdownFullMailboxes(t *testing.T) {
	const n, mailbox = 32, 2
	before := goroutines()
	setup := testConfig(t, n, 19)
	entered := make(chan struct{}, n)
	release := make(chan struct{})
	agents := make([]gossip.Agent, n)
	for i, a := range setup.Agents {
		agents[i] = &gatedAgent{Agent: a, round: 0, entered: entered, release: release}
	}
	rt := New(Config{Topology: setup.Net, Mailbox: mailbox}, agents)
	hosts := 0
	for i := 0; i < n; i++ {
		if i == 0 || rt.Node(i).host != rt.Node(i-1).host {
			rt.Node(i).Send(Message{Kind: MsgRound})
			hosts++
		}
	}
	for i := 0; i < hosts; i++ {
		<-entered // a host is inside Act; nothing drains its queue
	}
	for i := 0; i < n; i++ {
		for k := 0; k < mailbox; k++ {
			if !rt.Node(i).Send(Message{Kind: MsgReply, From: i}) {
				t.Fatalf("node %d refused message %d of %d", i, k, mailbox)
			}
		}
	}
	for w, h := range hostsOf(rt) {
		if got := queued(h); got != h.limit {
			t.Fatalf("host %d's queue holds %d, want it full at %d", w, got, h.limit)
		}
	}
	shut := make(chan struct{})
	go func() {
		rt.Shutdown()
		close(shut)
	}()
	waitStopped(t, rt)
	close(release)
	select {
	case <-shut:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung with every mailbox full")
	}
	waitForGoroutines(t, before)
}
