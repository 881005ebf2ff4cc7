package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/topo"
)

// hostsOf returns the distinct hosts serving rt's active nodes, in range
// order.
func hostsOf(rt *Runtime) []*host {
	var hosts []*host
	for i := range rt.nodes {
		if h := rt.nodes[i].host; h != nil && (len(hosts) == 0 || hosts[len(hosts)-1] != h) {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// seqAgent records, per sender, the sequence numbers (carried in Round) of the
// pushes it is handed. Nothing else is ever sent to it.
type seqAgent struct {
	gossip.Agent
	got [][]int
}

func (a *seqAgent) HandlePush(round, from int, _ gossip.Payload) {
	a.got[from] = append(a.got[from], round)
}

// TestHostFIFOConcurrentSenders is the socket-listener case: eight goroutines
// that are not the coordinator send sequence-numbered messages into the nodes
// of one host's range while that host drains, through a queue small enough
// that they block on it constantly — half of them one Send at a time, half
// through a channel batch whose chunks enter the queue a few entries per
// append. Every message must be accepted and handled, and each node must see
// each sender's messages in the order that sender sent them — per-node FIFO is
// what a Batch's per-destination order and the transcript rest on.
func TestHostFIFOConcurrentSenders(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(2))
	const n, senders, each = 8, 8, 500
	agents := make([]gossip.Agent, n)
	for i := range agents {
		agents[i] = &seqAgent{got: make([][]int, senders)}
	}
	rt := New(Config{Topology: topo.NewComplete(n), Mailbox: 1}, agents)
	defer rt.Shutdown()
	if got := len(hostsOf(rt)); got != 2 {
		t.Fatalf("%d hosts at GOMAXPROCS 2, want 2", got)
	}
	const targets = n / 2 // host 0's range
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 1 {
				b := ChannelConduit{}.NewBatch()
				for seq := 0; seq < each; seq++ {
					b.Add(rt.Node(seq%targets), Message{Kind: MsgPush, Round: seq, From: g})
				}
				if got := accepted(b.Flush()); got != each {
					t.Errorf("sender %d: %d of %d messages accepted", g, got, each)
				}
				return
			}
			for seq := 0; seq < each; seq++ {
				if !rt.Node(seq % targets).Send(Message{Kind: MsgPush, Round: seq, From: g}) {
					t.Errorf("sender %d: message %d refused", g, seq)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !rt.bar.await(senders * each) {
		t.Fatal("runtime stopped under the test")
	}
	for id := 0; id < targets; id++ {
		for g, got := range agents[id].(*seqAgent).got {
			if len(got) != each/targets {
				t.Fatalf("node %d handled %d messages of sender %d, want %d", id, len(got), g, each/targets)
			}
			for k, seq := range got {
				if seq != id+k*targets {
					t.Fatalf("node %d, sender %d: message %d is seq %d, want %d — reordered", id, g, k, seq, id+k*targets)
				}
			}
		}
	}
}

// TestHostWidths runs the protocol at every shape the range split can take:
// one host time-sliced with the coordinator, more Ps than active nodes (the
// width is capped, so no range is empty of IDs), and a fault mask that leaves
// a whole range with no active node (its host parks until Shutdown and must
// still exit). Each cell must give the simulator's result and leave no
// goroutine behind.
func TestHostWidths(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{3, 64} {
			for _, masked := range []bool{false, true} {
				t.Run(fmt.Sprintf("procs=%d/n=%d/masked=%v", procs, n, masked), func(t *testing.T) {
					stdruntime.GOMAXPROCS(procs)
					before := goroutines()
					p, err := core.NewParams(n, 2, 3.0)
					if err != nil {
						t.Fatal(err)
					}
					cfg := core.RunConfig{Params: p, Colors: core.UniformColors(n, 2), Seed: 23}
					active := n
					if masked {
						// The first eighth of the IDs: host 0's whole range at
						// eight Ps, part of it at fewer.
						cfg.Faulty = make([]bool, n)
						for i := 0; i < max(1, n/8); i++ {
							cfg.Faulty[i] = true
							active--
						}
					}
					want, err := core.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					setup, err := core.PrepareRun(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rt := runtimeFor(setup, Options{})
					width, serving := min(procs, active), 0
					for w := 0; w < width; w++ {
						for i := w * n / width; i < (w+1)*n/width; i++ {
							if cfg.Faulty == nil || !cfg.Faulty[i] {
								serving++
								break
							}
						}
					}
					if got := len(hostsOf(rt)); got != serving {
						t.Errorf("%d hosts serve a node, want %d of the %d ranges", got, serving, width)
					}
					rounds, err := rt.Run(context.Background(), setup.MaxRounds)
					rt.Shutdown()
					if err != nil {
						t.Fatal(err)
					}
					got := setup.Result(rounds)
					got.Agents, want.Agents = nil, nil
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("results differ\nsim:     %+v\nruntime: %+v", want, got)
					}
					waitForGoroutines(t, before)
				})
			}
		}
	}
}

// TestNewCostIndependentOfN pins what hosting ranges buys at construction: New
// starts at most GOMAXPROCS goroutines however many nodes there are, and makes
// a fixed number of allocations plus a handful per host — slabs, not three
// slices per node.
func TestNewCostIndependentOfN(t *testing.T) {
	width := stdruntime.GOMAXPROCS(0)
	allocs := func(n int) float64 {
		setup := testConfig(t, n, 1)
		return testing.AllocsPerRun(5, func() { runtimeFor(setup, Options{}).Shutdown() })
	}
	small, large := allocs(64), allocs(1024)
	if large > small+1 || large > float64(16+8*width) {
		t.Fatalf("New+Shutdown allocates %v objects at n=64 and %v at n=1024 with %d hosts; want them equal and at most %d",
			small, large, width, 16+8*width)
	}
	before := goroutines()
	rt := runtimeFor(testConfig(t, 1024, 1), Options{})
	started := goroutines() - before
	rt.Shutdown()
	if started > width {
		t.Fatalf("New at n=1024 started %d goroutines, want at most GOMAXPROCS = %d", started, width)
	}
	waitForGoroutines(t, before)
}

// TestBarrierRandomBatches stresses the crossing condition on its own: four
// completers count each wave in random batch sizes while the coordinator
// awaits a random part of the wave, then the rest, for thousands of waves,
// some of them empty. A batch rarely lands exactly on the first target, so a
// barrier that signalled only on equality — or lost the wake-up when the
// target is stored between a completer's add and its load — parks the
// coordinator for good, and the deadline reports it.
func TestBarrierRandomBatches(t *testing.T) {
	const completers, waves = 4, 5000
	b := newBarrier()
	work := make([]chan int, completers)
	var wg sync.WaitGroup
	for w := range work {
		work[w] = make(chan int)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for owed := range work[w] {
				for owed > 0 {
					k := 1 + r.Intn(owed)
					b.complete(k)
					owed -= k
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		r := rand.New(rand.NewSource(99))
		for wave := 0; wave < waves; wave++ {
			total := 0
			if wave%16 != 0 { // every sixteenth wave owes nothing
				for w := range work {
					owed := r.Intn(64)
					work[w] <- owed
					total += owed
				}
			}
			part := r.Intn(total + 1)
			if !b.await(part) || !b.await(total-part) {
				t.Error("await reported a stop nobody asked for")
				return
			}
			if done := b.done.Load(); done != b.issued {
				t.Errorf("wave %d: await returned at %d handled, %d issued", wave, done, b.issued)
				return
			}
		}
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator parked for good: a wake-up was lost")
	}
	for w := range work {
		close(work[w])
	}
	wg.Wait()
}

// TestHandOverFIFO pins per-destination order through the channel batch: a
// wave of sequence-numbered pushes to random nodes of several-node hosts,
// long enough that every host's stage fills and is handed over many times, so
// chunk boundaries fall at different points of each node's stream. Every
// delivery must be accepted and each node must handle its messages in Add
// order — also when the queue bound is smaller than a chunk (Mailbox: 1), so a
// chunk enters its queue a few entries at a time.
func TestHandOverFIFO(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(2))
	const n, wave = 8, 20 * handOverChunk
	for _, mailbox := range []int{0, 1} {
		t.Run(fmt.Sprintf("mailbox=%d", mailbox), func(t *testing.T) {
			agents := make([]gossip.Agent, n)
			for i := range agents {
				agents[i] = &seqAgent{got: make([][]int, 1)}
			}
			rt := New(Config{Topology: topo.NewComplete(n), Mailbox: mailbox}, agents)
			defer rt.Shutdown()
			if got := len(hostsOf(rt)); got != 2 {
				t.Fatalf("%d hosts at GOMAXPROCS 2, want 2", got)
			}
			if mailbox == 1 && hostsOf(rt)[0].limit >= handOverChunk {
				t.Fatalf("queue bound %d does not undercut the chunk", hostsOf(rt)[0].limit)
			}
			r := rand.New(rand.NewSource(int64(mailbox) + 5))
			want := make([][]int, n)
			b := ChannelConduit{}.NewBatch()
			for seq := 0; seq < wave; seq++ {
				id := r.Intn(n)
				want[id] = append(want[id], seq)
				b.Add(rt.Node(id), Message{Kind: MsgPush, Round: seq})
			}
			oks := b.Flush()
			if len(oks) != wave || accepted(oks) != wave {
				t.Fatalf("%d results, %d accepted; want all %d", len(oks), accepted(oks), wave)
			}
			if !rt.bar.await(wave) {
				t.Fatal("runtime stopped under the test")
			}
			for id := range agents {
				if got := agents[id].(*seqAgent).got[0]; !reflect.DeepEqual(got, want[id]) {
					t.Fatalf("node %d handled %v, want Add order %v", id, got, want[id])
				}
			}
		})
	}
}

// TestHandOverShutdown pins shutdown under a blocked hand-over: the only host
// is stuck in a handler, a batch's first full chunk fills its queue and blocks
// in putAll, and Shutdown must release it promptly — before the handler
// returns. Flush then reports, in Add order, the entries the queue took as
// accepted and every other one, staged or still to be Added, as false.
func TestHandOverShutdown(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(1))
	const n, wave = 8, 2*handOverChunk + 5
	before := goroutines()
	setup := testConfig(t, n, 29)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	agents := make([]gossip.Agent, n)
	for i, a := range setup.Agents {
		agents[i] = &gatedAgent{Agent: a, entered: entered, release: release}
	}
	rt := New(Config{Topology: setup.Net, Mailbox: 1}, agents)
	h := hostsOf(rt)[0]
	rt.Node(0).Send(Message{Kind: MsgRound})
	<-entered // the host is inside Act; nothing drains its queue

	results := make(chan []bool, 1)
	go func() {
		b := ChannelConduit{}.NewBatch()
		for i := 0; i < wave; i++ {
			b.Add(rt.Node(i%n), Message{Kind: MsgReply, From: i})
		}
		results <- append([]bool(nil), b.Flush()...)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for queued(h) < h.limit {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d, never reached its bound %d", queued(h), h.limit)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-results:
		t.Fatal("a hand-over into a full queue did not block")
	case <-time.After(50 * time.Millisecond):
	}
	shut := make(chan struct{})
	go func() {
		rt.Shutdown()
		close(shut)
	}()
	var oks []bool
	select {
	case oks = <-results:
	case <-time.After(time.Second):
		t.Fatal("a blocked hand-over did not return on Shutdown")
	}
	if len(oks) != wave {
		t.Fatalf("%d results for %d Adds", len(oks), wave)
	}
	for i, ok := range oks {
		if ok != (i < h.limit) {
			t.Fatalf("result %d = %v; want the %d the queue took accepted, then only false", i, ok, h.limit)
		}
	}
	close(release)
	select {
	case <-shut:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung once the handler returned")
	}
	waitForGoroutines(t, before)
}
