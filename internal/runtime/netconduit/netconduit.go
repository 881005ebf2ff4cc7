package netconduit

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// Dial/retry tuning. Dispatching a frame makes at most maxAttempts dials,
// sleeping a doubling backoff (capped at maxBackoff) after each failed one, so
// a dead peer costs a bounded ~100ms before the frame's deliveries are
// reported lost instead of wedging the coordinator forever.
const (
	maxAttempts    = 6
	initialBackoff = time.Millisecond
	maxBackoff     = 32 * time.Millisecond
)

// SocketConduit is a runtime.Conduit whose deliveries cross a real OS
// socket. It is both halves of the transport: a listener that routes the
// messages of inbound batch frames into their destination nodes' mailboxes and
// answers each frame with a bitmap ack, and a per-peer set of outbound
// connections (lazily dialed, reconnected with bounded backoff) that batches
// write their frames to.
//
// With the default routing every node is hosted behind the conduit's own
// listener — the single-process loopback configuration the transcript-
// equivalence suite pins. Route redirects individual node IDs at other
// listeners, which is the seam the multi-process sharded-serve follow-up
// plugs into; the per-peer connection and reconnect machinery is already
// exercised across distinct conduits by this package's tests.
//
// Deliver is safe for concurrent use. Close is idempotent; Runtime.Shutdown
// calls it automatically (after all host goroutines have exited) when the
// conduit is the runtime's transport.
type SocketConduit struct {
	network string
	ln      net.Listener
	dir     string // temp dir holding the unix socket, removed on Close
	epoch   time.Time

	nodes     sync.Map // int -> *runtime.Node: local nodes inbound frames route to
	routes    sync.Map // int -> route: node IDs hosted behind other listeners
	peerCache sync.Map // int -> *peer: memoized peerFor, invalidated by Route

	// batchBytes caps one staged batch frame's body; 0 means
	// defaultBatchBytes. Tests shrink it to force multi-frame windows.
	batchBytes int

	// singles holds the idle one-message batches Deliver runs on — as many
	// as Delivers have ever overlapped — so its steady state allocates
	// nothing. (A sync.Pool would: it sheds entries at every GC.)
	smu     sync.Mutex
	singles []*socketBatch

	mu    sync.Mutex
	peers map[string]*peer
	conns map[net.Conn]struct{} // accepted inbound connections

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	reconnects atomic.Int64 // outbound connections re-dialed after a failure
	rejects    atomic.Int64 // inbound connections dropped over malformed frames
}

// route addresses the listener hosting a non-local node.
type route struct{ network, addr string }

// Listen starts a socket conduit on the given network: "tcp" listens on a
// kernel-assigned loopback port, "unix" on a socket in a fresh temp
// directory. The caller owns the conduit until it hands it to a Runtime,
// whose Shutdown closes it; a conduit that never reaches a runtime must be
// Closed directly.
func Listen(network string) (*SocketConduit, error) {
	c := &SocketConduit{
		network: network,
		epoch:   time.Now(),
		peers:   make(map[string]*peer),
		conns:   make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
	var err error
	switch network {
	case "tcp":
		c.ln, err = net.Listen("tcp", "127.0.0.1:0")
	case "unix":
		c.dir, err = os.MkdirTemp("", "netconduit")
		if err == nil {
			c.ln, err = net.Listen("unix", filepath.Join(c.dir, "conduit.sock"))
		}
	default:
		return nil, fmt.Errorf("netconduit: unsupported network %q (want tcp or unix)", network)
	}
	if err != nil {
		if c.dir != "" {
			os.RemoveAll(c.dir)
		}
		return nil, fmt.Errorf("netconduit: listen %s: %w", network, err)
	}
	c.wg.Add(1)
	go c.accept()
	return c, nil
}

// Addr returns the listener's address — what another conduit's Route points
// at.
func (c *SocketConduit) Addr() net.Addr { return c.ln.Addr() }

// Register makes a locally hosted node reachable by inbound frames. Deliver
// registers its destinations lazily, which covers the loopback case; a
// receiving process in a multi-listener topology registers its shard
// explicitly.
func (c *SocketConduit) Register(n *runtime.Node) {
	if n != nil {
		c.nodes.Store(n.ID(), n)
	}
}

// Route directs deliveries for one node ID at the listener on addr instead
// of this conduit's own.
func (c *SocketConduit) Route(id int, network, addr string) {
	c.routes.Store(id, route{network: network, addr: addr})
	c.peerCache.Delete(id)
}

// Deliver implements runtime.Conduit as a batch of one: encode the message,
// write its frame to the peer hosting dst (dialing or re-dialing as needed),
// and wait for the ack that says dst's mailbox accepted it. False means the
// message did not survive transport — encode-to-mailbox — and the scheduler
// applies its loss semantics.
func (c *SocketConduit) Deliver(dst *runtime.Node, m runtime.Message) bool {
	var b *socketBatch
	c.smu.Lock()
	if k := len(c.singles); k > 0 {
		b, c.singles = c.singles[k-1], c.singles[:k-1]
	}
	c.smu.Unlock()
	if b == nil {
		b = c.NewBatch().(*socketBatch)
	}
	b.Add(dst, m)
	ok := b.Flush()[0]
	c.smu.Lock()
	c.singles = append(c.singles, b)
	c.smu.Unlock()
	return ok
}

// register lazily records dst as locally hosted. Load-then-store: on the
// steady-state path the node is already known and a sync.Map Load is a
// read-only fast path, where an unconditional Store would take the dirty-map
// lock and allocate an entry per delivery.
func (c *SocketConduit) register(dst *runtime.Node) {
	if v, ok := c.nodes.Load(dst.ID()); !ok || v != dst {
		c.nodes.Store(dst.ID(), dst)
	}
}

// Close shuts the conduit down: stop accepting, close every connection in
// both directions, wait for all conduit goroutines, and remove the unix
// socket's temp directory. Idempotent. Pending deliveries fail as losses. Close
// after the runtime's nodes have stopped (Runtime.Shutdown's order): a frame
// blocked handing messages to a full host queue holds its inbound
// connection's read loop until the runtime's shutdown releases it.
func (c *SocketConduit) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.ln.Close()
		c.mu.Lock()
		for conn := range c.conns {
			conn.Close()
		}
		for _, p := range c.peers {
			p.closeConn()
		}
		c.mu.Unlock()
		c.wg.Wait()
		if c.dir != "" {
			os.RemoveAll(c.dir)
		}
	})
	return nil
}

// node resolves a locally hosted node ID; nil when unknown.
func (c *SocketConduit) node(id int) *runtime.Node {
	v, ok := c.nodes.Load(id)
	if !ok {
		return nil
	}
	return v.(*runtime.Node)
}

// peerFor returns (creating on first use) the outbound peer hosting id. The
// per-node cache keeps the steady-state path off the global mutex and away
// from the key-string allocation; Route invalidates the affected entry.
func (c *SocketConduit) peerFor(id int) *peer {
	if v, ok := c.peerCache.Load(id); ok {
		return v.(*peer)
	}
	network, addr := c.network, c.ln.Addr().String()
	if v, ok := c.routes.Load(id); ok {
		r := v.(route)
		network, addr = r.network, r.addr
	}
	key := network + "!" + addr
	c.mu.Lock()
	p, ok := c.peers[key]
	if !ok {
		p = &peer{c: c, network: network, addr: addr}
		c.peers[key] = p
	}
	c.mu.Unlock()
	c.peerCache.Store(id, p)
	return p
}

// accept owns the listener: every inbound connection gets its own serve
// goroutine.
func (c *SocketConduit) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // Close closed the listener, or it is irrecoverably broken
		}
		c.mu.Lock()
		select {
		case <-c.closed:
			c.mu.Unlock()
			conn.Close()
			return
		default:
		}
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.serve(conn)
	}
}

// dropConn closes and forgets one inbound connection.
func (c *SocketConduit) dropConn(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
}

// serve is the inbound half of the round trip: read batch frames, decode each
// one streaming — every body Added, in order, to the connection's channel
// batch, which hands the frame to the destination nodes' hosts in per-host
// chunks and so preserves per-destination FIFO — and answer it with one bitmap
// ack of the Flush results. Any malformed frame, and any frame type but a
// batch, is connection-fatal — the peer's pending deliveries fail as losses
// and the conduit stays up for the next connection — so garbage on the wire
// can never wedge the coordinator.
func (c *SocketConduit) serve(conn net.Conn) {
	defer c.wg.Done()
	defer c.dropConn(conn)
	var buf, out, bits []byte
	var cache paramsCache
	batch := runtime.ChannelConduit{}.NewBatch()
	var added []int32 // the frame positions of the Added messages, in Add order
	for {
		body, err := readFrame(conn, &buf)
		if err != nil {
			if errors.Is(err, errCodec) || errors.Is(err, io.ErrUnexpectedEOF) {
				c.rejects.Add(1)
			}
			return
		}
		if body[0] != frameBatch {
			c.rejects.Add(1)
			return
		}
		r := &reader{b: body[1:]}
		seq, count, err := readBatchHeader(r)
		if err != nil {
			c.rejects.Add(1)
			return
		}
		need := (count + 7) / 8
		if cap(bits) < need {
			bits = make([]byte, need)
		}
		bits = bits[:need]
		clear(bits)
		added = added[:0]
		for i := 0; i < count; i++ {
			to, m, err := readMessageBody(r, c.epoch, &cache)
			if err != nil {
				c.rejects.Add(1)
				return
			}
			if node := c.node(to); node != nil {
				batch.Add(node, m)
				added = append(added, int32(i))
			}
		}
		if len(r.b) != 0 {
			c.rejects.Add(1)
			return
		}
		for j, ok := range batch.Flush() {
			if ok {
				bitmapSet(bits, int(added[j]))
			}
		}
		out = appendBatchAckFrame(out[:0], seq, bits, count)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// peer is one outbound destination: the connection to a listener and the
// reconnect state.
type peer struct {
	c       *SocketConduit
	network string
	addr    string
	seq     atomic.Uint64

	mu       sync.Mutex // guards pc and redialed (dial / kill)
	pc       *peerConn
	redialed bool // a connection died; the next successful dial is a reconnect
}

// peerConn is one live outbound connection. Pending acks are per-connection:
// when the connection dies, exactly the frames written to it fail — the next
// dial starts a fresh table.
type peerConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	pending map[uint64]*batchWaiter // in-flight frames by sequence number
	dead    bool
}

// batchWaiter is one in-flight batch frame's completion slot: resolved by
// the ack reader (ok plus the result bitmap, copied into waiter-owned
// storage) or failed by connection death, then signalled on done. The
// dispatching socketBatch owns it again once it has received done, so
// waiters recycle across flushes without a pool.
type batchWaiter struct {
	done chan struct{} // cap 1
	ok   bool          // an ack bitmap came back; false = frame lost whole
	bits []byte
	idxs []int32 // the frame's messages as indices into the wave's results
}

// register parks a frame's waiter under seq; false means the connection is
// already dead and the caller should fail or re-dial.
func (pc *peerConn) register(seq uint64, w *batchWaiter) bool {
	pc.pmu.Lock()
	if pc.dead {
		pc.pmu.Unlock()
		return false
	}
	pc.pending[seq] = w
	pc.pmu.Unlock()
	return true
}

// unregister takes seq's waiter back after a failed write. It reports false
// when the connection's death got there first: failAll owns the waiter then
// and signals it, so the caller must not.
func (pc *peerConn) unregister(seq uint64) bool {
	pc.pmu.Lock()
	_, found := pc.pending[seq]
	delete(pc.pending, seq)
	pc.pmu.Unlock()
	return found
}

func (pc *peerConn) resolve(seq uint64, bits []byte) {
	pc.pmu.Lock()
	w, found := pc.pending[seq]
	delete(pc.pending, seq)
	pc.pmu.Unlock()
	if found {
		w.bits = append(w.bits[:0], bits...)
		w.ok = true
		w.done <- struct{}{}
	}
}

// failAll resolves every pending frame as lost; later registers fail
// immediately. A partially-acked window fails exactly its unacked remainder:
// frames the reader already resolved are gone from the table.
func (pc *peerConn) failAll() {
	pc.pmu.Lock()
	pending := pc.pending
	pc.pending = nil
	pc.dead = true
	pc.pmu.Unlock()
	for _, w := range pending {
		w.ok = false
		w.done <- struct{}{}
	}
}

func (pc *peerConn) write(frame []byte) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	_, err := pc.conn.Write(frame)
	return err
}

// ensureConn returns the live connection, dialing one (and starting its ack
// reader) if needed.
func (p *peer) ensureConn() (*peerConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pc != nil {
		return p.pc, nil
	}
	conn, err := net.DialTimeout(p.network, p.addr, time.Second)
	if err != nil {
		return nil, err
	}
	if p.redialed {
		p.redialed = false
		p.c.reconnects.Add(1)
	}
	pc := &peerConn{conn: conn, pending: make(map[uint64]*batchWaiter)}
	p.pc = pc
	p.c.wg.Add(1)
	go p.readAcks(pc)
	return pc, nil
}

// kill retires a connection: detach it so the next dispatch re-dials, close
// it, and fail what was in flight on it.
func (p *peer) kill(pc *peerConn) {
	p.mu.Lock()
	if p.pc == pc {
		p.pc = nil
		p.redialed = true
	}
	p.mu.Unlock()
	pc.conn.Close()
	pc.failAll()
}

// closeConn is Close's half of kill: drop the live connection, if any.
func (p *peer) closeConn() {
	p.mu.Lock()
	pc := p.pc
	p.pc = nil
	p.mu.Unlock()
	if pc != nil {
		pc.conn.Close()
	}
}

// defaultBatchBytes caps one staged frame's body: large enough that a full
// wave of typical protocol messages (votes, certificates of O(log² n) bits)
// coalesces into one or two writes, small enough that a frame never
// approaches MaxFrame and the server's decode stays cache-friendly.
const defaultBatchBytes = 32 << 10

// NewBatch implements runtime.BatchConduit: deliveries staged through the
// returned batch coalesce per peer into multi-message frames — one write and
// one bitmap ack per frame instead of a synchronous round trip per message —
// with a window of in-flight frames per peer that Flush settles at the round
// barrier. The batch is owned by one goroutine (the coordinator); other
// batches, and Deliver, stay independently usable on the same conduit.
func (c *SocketConduit) NewBatch() runtime.Batch {
	return &socketBatch{c: c, stages: make(map[*peer]*peerStage)}
}

// socketBatch is one coordinator-owned delivery wave in flight: per-peer
// staging buffers of encoded message bodies, sealed into batch frames when
// they reach the size threshold (the window) or at Flush (the barrier).
type socketBatch struct {
	c        *SocketConduit
	stages   map[*peer]*peerStage
	active   []*peerStage   // stages holding bodies, in first-Add order
	inflight []*batchWaiter // dispatched frames, in dispatch order
	freeW    []*batchWaiter // settled waiters, recycled across flushes
	results  []bool
	frame    []byte // frame assembly scratch, reused per dispatch
	n        int    // deliveries Added since the last Flush
}

// peerStage accumulates one peer's staged messages: their encoded bodies
// back to back, and each one's index in the wave's result slice.
type peerStage struct {
	p    *peer
	buf  []byte
	idxs []int32
}

// Add implements runtime.Batch: encode the message into its peer's staging
// buffer — sealing and dispatching a frame when the buffer reaches the
// threshold, so a large wave pipelines as a window of in-flight frames
// rather than one giant write at the barrier. Nothing waits here.
func (b *socketBatch) Add(dst *runtime.Node, m runtime.Message) {
	idx := int32(b.n)
	b.n++
	id := dst.ID()
	b.c.register(dst)
	p := b.c.peerFor(id)
	st := b.stages[p]
	if st == nil {
		st = &peerStage{p: p}
		b.stages[p] = st
	}
	if len(st.idxs) == 0 {
		b.active = append(b.active, st)
	}
	start := len(st.buf)
	buf, err := appendMessageBody(st.buf, id, m, b.c.epoch)
	if err != nil {
		st.buf = st.buf[:start]
		// Only a payload type outside the protocol's set gets here: a
		// programming error, not a transport condition. Fail loudly instead
		// of folding it into the loss model.
		panic(fmt.Sprintf("netconduit: %v", err))
	}
	st.buf = buf
	st.idxs = append(st.idxs, idx)
	limit := b.c.batchBytes
	if limit <= 0 {
		limit = defaultBatchBytes
	}
	if len(st.buf) >= limit {
		b.dispatch(st)
	}
}

// Flush implements runtime.Batch: seal every remaining stage, then settle
// the whole window — blocking until each in-flight frame's bitmap ack (or
// connection death) arrives — and report per-delivery results in Add order.
func (b *socketBatch) Flush() []bool {
	for _, st := range b.active {
		if len(st.idxs) > 0 {
			b.dispatch(st)
		}
	}
	b.active = b.active[:0]
	if cap(b.results) < b.n {
		b.results = make([]bool, b.n)
	}
	results := b.results[:b.n]
	for i := range results {
		results[i] = false
	}
	for _, w := range b.inflight {
		<-w.done
		if w.ok {
			for j, gi := range w.idxs {
				if j/8 < len(w.bits) && bitmapGet(w.bits, j) {
					results[gi] = true
				}
			}
		}
		b.freeW = append(b.freeW, w)
	}
	b.inflight = b.inflight[:0]
	b.results = results
	b.n = 0
	return results
}

// getWaiter recycles a settled waiter or makes a fresh one.
func (b *socketBatch) getWaiter() *batchWaiter {
	if k := len(b.freeW); k > 0 {
		w := b.freeW[k-1]
		b.freeW = b.freeW[:k-1]
		w.ok = false
		w.idxs = w.idxs[:0]
		return w
	}
	return &batchWaiter{done: make(chan struct{}, 1)}
}

// fail settles a waiter locally: the frame never made it out.
func (b *socketBatch) fail(w *batchWaiter) {
	w.ok = false
	w.done <- struct{}{}
}

// dispatch seals one stage into a batch frame and writes it, leaving its
// waiter in flight for Flush to settle. The dial is retried with bounded
// backoff, but a frame is never re-written after a write error: it, or
// in-flight frames on the dying connection, could still be processed, and a
// rewrite on a fresh connection would duplicate it or overtake them and break
// per-destination FIFO order — so the frame's deliveries fail as transport
// losses instead (at-most-once, the scheduler's loss semantics).
func (b *socketBatch) dispatch(st *peerStage) {
	w := b.getWaiter()
	w.idxs = append(w.idxs, st.idxs...)
	b.inflight = append(b.inflight, w)
	count := len(st.idxs)
	p := st.p
	seq := p.seq.Add(1)
	frame, err := appendBatchFrame(b.frame[:0], seq, count, st.buf)
	b.frame = frame[:0]
	st.buf = st.buf[:0]
	st.idxs = st.idxs[:0]
	if err != nil {
		// Oversized frame: unreachable below the staging threshold, but fail
		// as losses rather than wedge the round.
		b.fail(w)
		return
	}
	backoff := initialBackoff
	for attempt := 0; attempt < maxAttempts; attempt++ {
		select {
		case <-b.c.closed:
			b.fail(w)
			return
		default:
		}
		pc, err := p.ensureConn()
		if err != nil {
			select {
			case <-b.c.closed:
				b.fail(w)
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		if !pc.register(seq, w) {
			continue // died under us; the next attempt re-dials
		}
		if err := pc.write(frame); err != nil {
			mine := pc.unregister(seq)
			p.kill(pc)
			if mine {
				b.fail(w)
			}
			return
		}
		return // in flight; Flush settles it
	}
	b.fail(w)
}

// readAcks drains one connection's ack stream, resolving pending frames,
// until the connection dies or speaks anything but a well-formed batch ack —
// then retires it so in-flight deliveries fail and the next one reconnects.
func (p *peer) readAcks(pc *peerConn) {
	defer p.c.wg.Done()
	var buf []byte
	for {
		body, err := readFrame(pc.conn, &buf)
		if err != nil || body[0] != frameBatchAck {
			break
		}
		seq, bits, _, err := decodeBatchAck(body[1:])
		if err != nil {
			break
		}
		pc.resolve(seq, bits)
	}
	p.kill(pc)
}
