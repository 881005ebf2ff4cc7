package netconduit

import (
	"context"
	"net"
	"os"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/runtime"
	"repro/internal/topo"
)

// networks are the two socket flavors every robustness property must hold on.
var networks = []string{"unix", "tcp"}

// testSetup builds a small prepared run whose nodes the socket tests deliver
// into.
func testSetup(t *testing.T, n int, seed uint64) (*core.RunSetup, core.Params) {
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
	return setup, p
}

// testRuntime starts a runtime's hosts on the loss-free channel conduit, so the
// socket conduit under test can be driven and torn down independently of the
// runtime's lifecycle.
func testRuntime(t *testing.T, n int, seed uint64) (*runtime.Runtime, core.Params) {
	t.Helper()
	setup, p := testSetup(t, n, seed)
	rt := runtime.New(runtime.Config{
		Topology: setup.Net,
		Faulty:   setup.Faulty,
		Faults:   setup.Faults,
		Counters: setup.Counters,
	}, setup.Agents)
	return rt, p
}

// voteMsg is a well-formed protocol message that round-0 agents ignore
// (commitment phase) — safe to inject outside a coordinated round.
func voteMsg(p core.Params) runtime.Message {
	return runtime.Message{Kind: runtime.MsgVote, Round: 0, From: 1, Payload: core.Vote{P: p, Value: 1}}
}

func listen(t *testing.T, network string) *SocketConduit {
	t.Helper()
	c, err := Listen(network)
	if err != nil {
		t.Fatalf("Listen(%s): %v", network, err)
	}
	return c
}

// TestDeliverAfterNodeShutdown pins the inbound half of the loss contract: a
// frame that reaches the listener after its destination node has shut down is
// acked false — Deliver reports a transport loss, the connection survives,
// and nothing counts as a malformed-frame reject.
func TestDeliverAfterNodeShutdown(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, p := testRuntime(t, 32, 1)
			c := listen(t, network)
			defer c.Close()
			if !c.Deliver(rt.Node(3), voteMsg(p)) {
				t.Fatal("delivery to a live node failed")
			}
			rt.Shutdown()
			if c.Deliver(rt.Node(3), voteMsg(p)) {
				t.Fatal("delivery to a stopped node reported success")
			}
			if got := c.rejects.Load(); got != 0 {
				t.Fatalf("well-formed frames counted as rejects: %d", got)
			}
		})
	}
}

// TestReconnectAfterConnKilled pins the reconnect path: killing the outbound
// connection mid-run makes the next Deliver re-dial (counted in reconnects)
// and succeed, instead of failing forever or wedging.
func TestReconnectAfterConnKilled(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, p := testRuntime(t, 32, 2)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			if !c.Deliver(rt.Node(0), voteMsg(p)) {
				t.Fatal("first delivery failed")
			}
			// Yank the live outbound connection out from under the conduit,
			// as a listener crash or network partition would.
			c.omu.Lock()
			pc := c.out
			c.omu.Unlock()
			if pc == nil {
				t.Fatal("no live outbound connection after a delivery")
			}
			pc.conn.Close()
			// The ack reader notices and retires the connection; wait for that
			// so the next delivery deterministically takes the re-dial path.
			deadline := time.Now().Add(5 * time.Second)
			for {
				c.omu.Lock()
				gone := c.out == nil
				c.omu.Unlock()
				if gone {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("killed connection never retired")
				}
				time.Sleep(time.Millisecond)
			}
			if !c.Deliver(rt.Node(1), voteMsg(p)) {
				t.Fatal("delivery after connection kill failed")
			}
			if got := c.reconnects.Load(); got != 1 {
				t.Fatalf("reconnects = %d, want 1", got)
			}
		})
	}
}

// closeWriter is the half-close both net.TCPConn and net.UnixConn provide —
// it lets a test send a truncated frame and still observe the server's
// reaction on the read side.
type closeWriter interface{ CloseWrite() error }

// TestGarbageFramesRejected walks raw garbage into the listener — oversized
// length prefix, unknown frame type (the retired single-message generation's
// types 1 and 2 included, well-formed as their last speaker wrote them),
// unsupported version (a well-formed v2 batch frame included), truncated
// body — and pins that each one is
// connection-fatal (the writer sees EOF), counted as a reject, and leaves the
// conduit fully usable.
func TestGarbageFramesRejected(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, p := testRuntime(t, 32, 3)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			cases := [][]byte{
				{0xFF, 0xFF, 0xFF, 0xFF},                                        // length prefix beyond MaxFrame
				{0, 0, 0, 3, 9, 9, 9},                                           // unknown frame type 9
				{0, 0, 0, 9, 1, 1, 1, 2, 0, 0, 1, 0, 0},                         // retired type 1: a v1 message frame (vote, nil payload)
				{0, 0, 0, 3, 2, 1, 1},                                           // retired type 2: a v1 ack
				{0, 0, 0, 10, frameBatch, batchVersion},                         // body truncated by half-close
				{0, 0, 0, 2, frameBatch, 99},                                    // batch frame, batch version 99
				{0, 0, 0, 10, frameBatch, 2, 1, 1, 2, 0, 0, 1, 0, 0},            // a v2 batch frame (vote, nil payload)
				{0, 0, 0, 4, frameBatch, batchVersion, 1, 0},                    // batch of zero messages
				{0, 0, 0, 5, frameBatch, batchVersion, 1, 9, 0},                 // count 9 overruns the frame
				{0, 0, 0, 6, frameBatch, batchVersion, 1, 1, 3, 0},              // message body truncated mid-header
				{0, 0, 0, 10, frameBatch, batchVersion, 1, 1, 1, 4, 0, 0, 0, 0}, // flags bit 4 is no known field
			}
			for i, frame := range cases {
				conn, err := net.Dial(c.network, c.addr)
				if err != nil {
					t.Fatalf("case %d: dial: %v", i, err)
				}
				if _, err := conn.Write(frame); err != nil {
					t.Fatalf("case %d: write: %v", i, err)
				}
				conn.(closeWriter).CloseWrite()
				// The server must close the connection on us — garbage is
				// connection-fatal, not something to resynchronize past.
				if _, err := conn.Read(make([]byte, 1)); err == nil {
					t.Fatalf("case %d: server kept the connection open", i)
				}
				conn.Close()
			}
			if got := c.rejects.Load(); got != int64(len(cases)) {
				t.Fatalf("rejects = %d, want %d", got, len(cases))
			}
			// The coordinator-facing path must be untouched by all of it.
			if !c.Deliver(rt.Node(0), voteMsg(p)) {
				t.Fatal("delivery after garbage storm failed")
			}
		})
	}
}

// TestConcurrentDeliver exercises the conduit's concurrency contract under
// the race detector: many goroutines delivering through one shared outbound
// connection, every ack finding its own waiter.
func TestConcurrentDeliver(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			const workers, each = 8, 8
			rt, p := testRuntime(t, workers*each, 4)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			var wg sync.WaitGroup
			failed := make(chan int, workers*each)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						id := w*each + i
						if !c.Deliver(rt.Node(id), voteMsg(p)) {
							failed <- id
						}
					}
				}(w)
			}
			wg.Wait()
			close(failed)
			for id := range failed {
				t.Errorf("concurrent delivery to node %d failed", id)
			}
		})
	}
}

// TestBatchDeliver pins the batched seam directly: a wave of Adds across
// several nodes flushes to all-true results in Add order, both with the
// default threshold (one coalesced frame) and with batchBytes shrunk so
// every Add seals its own frame — a multi-frame in-flight window.
func TestBatchDeliver(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			for _, window := range []int{0, 1} {
				rt, p := testRuntime(t, 32, 7)
				c := listen(t, network)
				c.batchBytes = window
				b := c.NewBatch()
				const waves, per = 2, 12
				for w := 0; w < waves; w++ {
					for i := 0; i < per; i++ {
						b.Add(rt.Node(i), voteMsg(p))
					}
					oks := b.Flush()
					if len(oks) != per {
						t.Fatalf("window=%d: flush returned %d results, want %d", window, len(oks), per)
					}
					for i, ok := range oks {
						if !ok {
							t.Fatalf("window=%d wave %d: delivery %d reported lost", window, w, i)
						}
					}
				}
				if got := c.rejects.Load(); got != 0 {
					t.Fatalf("window=%d: well-formed batches counted as rejects: %d", window, got)
				}
				c.Close()
				rt.Shutdown()
			}
		})
	}
}

// pushClock reports, on handled, when each push reached it; nothing else is
// sent to it.
type pushClock struct {
	gossip.Agent
	handled chan time.Time
}

func (a *pushClock) HandlePush(int, int, gossip.Payload) { a.handled <- time.Now() }

// TestDelayCrossesSocket pins that a message's link delay survives the wire:
// a push with a 30 ms Delay, batched over the socket, is acked as accepted
// and then handled by the receiving host no earlier than SentAt + Delay.
func TestDelayCrossesSocket(t *testing.T) {
	const delay = 30 * time.Millisecond
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			clock := &pushClock{handled: make(chan time.Time, 1)}
			rt := runtime.New(runtime.Config{Topology: topo.NewComplete(2)}, []gossip.Agent{clock, clock})
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			b := c.NewBatch()
			m := runtime.Message{Kind: runtime.MsgPush, From: 1, SentAt: time.Now(), Delay: delay}
			b.Add(rt.Node(0), m)
			if oks := b.Flush(); !oks[0] {
				t.Fatal("delayed push reported lost")
			}
			select {
			case at := <-clock.handled:
				if due := m.SentAt.Add(delay); at.Before(due) {
					t.Fatalf("push handled %v before its due time — the delay did not cross", due.Sub(at))
				}
			case <-time.After(5 * time.Second):
				t.Fatal("delayed push never handled")
			}
		})
	}
}

// TestDeliverSteadyStateAllocs is the alloc budget for the hot path: after
// warm-up (connection dialed, pools primed, node registered, Params cached), a
// Deliver of a nil-payload message — encode, write, server decode, mailbox
// hand-off, ack — allocates nothing on either side, and neither does a
// Deliver of either query payload, which the decoder returns pre-boxed from
// its Params cache. Votes, intention lists and certificates are not on the
// budget: decoding them necessarily allocates their value.
func TestDeliverSteadyStateAllocs(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, p := testRuntime(t, 256, 8)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			// Round-0 pushes are ignored by the agent, so handling them on
			// the host allocates nothing either.
			for _, m := range []runtime.Message{
				{Kind: runtime.MsgVote, Round: 0, From: 1},
				{Kind: runtime.MsgPush, Round: 0, From: 1, Payload: core.IntentQuery{P: p}},
				{Kind: runtime.MsgPush, Round: 0, From: 1, Payload: core.CertQuery{P: p}},
			} {
				for i := 0; i < 8; i++ {
					if !c.Deliver(rt.Node(3), m) {
						t.Fatal("warm-up delivery failed")
					}
				}
				avg := testing.AllocsPerRun(64, func() {
					if !c.Deliver(rt.Node(3), m) {
						t.Fatal("steady-state delivery failed")
					}
				})
				if avg != 0 {
					t.Fatalf("steady-state Deliver of %T allocates %.1f objects/op, want 0", m.Payload, avg)
				}
			}
		})
	}
}

// TestRoutingConcurrentWithInbound runs the node table's writers against its
// reader under the race detector. Deliver registers its destination lazily,
// so goroutines delivering to bands of IDs — each band walked in descending
// order, so its first delivery grows the table past the band — store into the
// table while the serve loop loads from it to route inbound frames, and a
// batch flushes waves over the whole ID range, also descending, at the same
// time. n = 256 is past the table's 64-slot start. Every delivery must land.
func TestRoutingConcurrentWithInbound(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			const n, workers = 256, 4
			rt, p := testRuntime(t, n, 12)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for id := (w+1)*n/workers - 1; id >= w*n/workers; id-- {
						if !c.Deliver(rt.Node(id), voteMsg(p)) {
							t.Errorf("delivery to node %d lost", id)
						}
					}
				}(w)
			}
			b := c.NewBatch()
			for wave := 0; wave < 8; wave++ {
				for id := n - 1; id >= 0; id -= 3 {
					b.Add(rt.Node(id), voteMsg(p))
				}
				for i, ok := range b.Flush() {
					if !ok {
						t.Errorf("wave %d: delivery %d lost", wave, i)
					}
				}
			}
			wg.Wait()
		})
	}
}

// TestIDTable pins the node table's contract: unknown, negative and
// out-of-range IDs load nil, growth keeps every stored slot, storing nil past
// the end does not grow the table, and growth is geometric — filling IDs
// 0..n-1 in order reallocates O(log n) times, not once per ID.
func TestIDTable(t *testing.T) {
	var tab idTable[int]
	if tab.load(0) != nil || tab.load(-1) != nil {
		t.Fatal("empty table loaded a value")
	}
	tab.store(5, nil)
	if tab.slots.Load() != nil {
		t.Fatal("storing nil grew the table")
	}
	const n = 5000
	vals := make([]int, n)
	grows := 0
	var last *[]atomic.Pointer[int]
	for id := range vals {
		vals[id] = id
		tab.store(id, &vals[id])
		if s := tab.slots.Load(); s != last {
			grows, last = grows+1, s
		}
	}
	if grows > 8 {
		t.Fatalf("filling %d IDs grew the table %d times", n, grows)
	}
	for id := range vals {
		if got := tab.load(id); got != &vals[id] {
			t.Fatalf("load(%d) = %v after growth", id, got)
		}
	}
	if tab.load(-1) != nil || tab.load(1<<40) != nil {
		t.Fatal("out-of-range ID loaded a value")
	}
	tab.store(7, nil)
	if tab.load(7) != nil {
		t.Fatal("stored nil still loads the old value")
	}
}

// batchAckingListener acks complete batch frames until ackFrames have been
// answered, then kills the connection on the next frame — the window-death
// fixture.
func batchAckingListener(t *testing.T, ackFrames int) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var buf, out []byte
				acked := 0
				for {
					body, err := readFrame(conn, &buf)
					if err != nil || body[0] != frameBatch {
						return
					}
					if acked >= ackFrames {
						return // kill the conn with this frame unacked
					}
					r := &reader{b: body[1:]}
					seq, count, err := readBatchHeader(r, &decodeCache{})
					if err != nil {
						return
					}
					bits := make([]byte, (count+7)/8)
					for i := 0; i < count; i++ {
						bitmapSet(bits, i)
					}
					out = appendBatchAckFrame(out[:0], seq, bits, count)
					if _, err := conn.Write(out); err != nil {
						return
					}
					acked++
				}
			}(conn)
		}
	}()
	return ln
}

// TestBatchWindowConnDeath pins the window's failure isolation: with two
// frames in flight on one connection, a listener that acks the first and dies
// before the second fails exactly the second frame's deliveries — the acked
// frame's results survive, and the conduit re-dials for the next wave.
func TestBatchWindowConnDeath(t *testing.T) {
	rt, p := testRuntime(t, 32, 10)
	defer rt.Shutdown()
	ln := batchAckingListener(t, 1)
	defer ln.Close()
	c := listen(t, "tcp")
	defer c.Close()
	c.batchBytes = 1            // every Add seals its own frame
	c.addr = ln.Addr().String() // dial the stub, not the conduit's own listener

	b := c.NewBatch()
	b.Add(rt.Node(4), voteMsg(p)) // frame 1: acked
	b.Add(rt.Node(5), voteMsg(p)) // frame 2: connection dies unacked
	oks := b.Flush()
	if len(oks) != 2 {
		t.Fatalf("flush returned %d results, want 2", len(oks))
	}
	if !oks[0] {
		t.Fatal("acked frame's delivery reported lost")
	}
	if oks[1] {
		t.Fatal("unacked frame's delivery reported success after conn death")
	}
	// The next wave re-dials the stub (which acks one fresh frame per conn).
	b.Add(rt.Node(4), voteMsg(p))
	if oks := b.Flush(); !oks[0] {
		t.Fatal("batch after window death failed to re-dial")
	}
	if got := c.reconnects.Load(); got == 0 {
		t.Fatal("window death never counted as a reconnect")
	}
}

// TestConcurrentDeliverDuringBatch runs single Delivers and batch flushes
// against one conduit at once under the race detector: the Delivers' one-
// message batches and the coordinator's wave share a connection, its pending
// table and its ack stream, and every completion must find its own waiter.
func TestConcurrentDeliverDuringBatch(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			rt, p := testRuntime(t, 64, 11)
			defer rt.Shutdown()
			c := listen(t, network)
			defer c.Close()
			const workers, each = 4, 4
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if !c.Deliver(rt.Node(32+w*each+i), voteMsg(p)) {
							t.Errorf("concurrent single delivery %d/%d failed", w, i)
						}
					}
				}(w)
			}
			b := c.NewBatch()
			for wave := 0; wave < 2; wave++ {
				for i := 0; i < 8; i++ {
					b.Add(rt.Node(wave*8+i), voteMsg(p))
				}
				for i, ok := range b.Flush() {
					if !ok {
						t.Errorf("batch wave %d delivery %d failed", wave, i)
					}
				}
			}
			wg.Wait()
		})
	}
}

// TestShutdownReleasesResources is the transport goroleak bracket: a full
// run through the socket conduit, shut down through Runtime.Shutdown, leaves
// no conduit goroutines and (for unix) no socket file behind.
func TestShutdownReleasesResources(t *testing.T) {
	for _, network := range networks {
		t.Run(network, func(t *testing.T) {
			before := stdruntime.NumGoroutine()
			setup, _ := testSetup(t, 32, 6)
			c := listen(t, network)
			rt := runtime.New(runtime.Config{
				Topology: setup.Net,
				Faulty:   setup.Faulty,
				Faults:   setup.Faults,
				Counters: setup.Counters,
				Conduit:  c,
			}, setup.Agents)
			if _, err := rt.Run(context.Background(), setup.MaxRounds); err != nil {
				t.Fatal(err)
			}
			rt.Shutdown() // closes the conduit: runtime owns the transport
			if c.dir != "" {
				if _, err := os.Stat(c.dir); !os.IsNotExist(err) {
					t.Fatalf("unix socket dir %s survived Close (err=%v)", c.dir, err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for stdruntime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d running, want <= %d", stdruntime.NumGoroutine(), before)
				}
				time.Sleep(5 * time.Millisecond)
			}
			// Deliver after Close must fail fast, not re-dial a dead listener.
			if c.Deliver(rt.Node(0), runtime.Message{Kind: runtime.MsgVote}) {
				t.Fatal("delivery through a closed conduit reported success")
			}
		})
	}
}
