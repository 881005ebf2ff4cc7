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
// a dead listener costs a bounded ~100ms before the frame's deliveries are
// reported lost instead of wedging the coordinator forever.
const (
	maxAttempts    = 6
	initialBackoff = time.Millisecond
	maxBackoff     = 32 * time.Millisecond
)

// SocketConduit is a runtime.Conduit whose deliveries cross a real OS
// socket. It is both halves of a loopback transport: a listener that routes
// the messages of inbound batch frames into their destination nodes'
// mailboxes and answers each frame with a bitmap ack, and one outbound
// connection to that same listener (lazily dialed, reconnected with bounded
// backoff) that batches write their frames to. Every node the runtime hosts
// is reached through it.
//
// Deliver is safe for concurrent use. Close is idempotent; Runtime.Shutdown
// calls it automatically (after all host goroutines have exited) when the
// conduit is the runtime's transport.
type SocketConduit struct {
	network string
	addr    string // what the outbound connection dials: the listener's own address
	ln      net.Listener
	dir     string // temp dir holding the unix socket, removed on Close
	epoch   time.Time

	// nodes holds the nodes inbound frames route to, indexed by node ID: the
	// serve loop's per-message lookup is two atomic loads.
	nodes idTable[runtime.Node]

	// batchBytes caps one staged batch frame's body; 0 means
	// defaultBatchBytes. Tests shrink it to force multi-frame windows.
	batchBytes int

	// singles holds the idle one-message batches Deliver runs on — as many
	// as Delivers have ever overlapped — so its steady state allocates
	// nothing. (A sync.Pool would: it sheds entries at every GC.)
	smu     sync.Mutex
	singles []*socketBatch

	mu    sync.Mutex
	conns map[net.Conn]struct{} // accepted inbound connections

	seq      atomic.Uint64 // the last outbound frame's sequence number
	omu      sync.Mutex    // guards out and redialed (dial / kill)
	out      *peerConn     // the live outbound connection, nil until dialed
	redialed bool          // a connection died; the next successful dial is a reconnect

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	reconnects atomic.Int64 // outbound connections re-dialed after a failure
	rejects    atomic.Int64 // inbound connections dropped over malformed frames
}

// Listen starts a socket conduit on the given network: "tcp" listens on a
// kernel-assigned loopback port, "unix" on a socket in a fresh temp
// directory. The caller owns the conduit until it hands it to a Runtime,
// whose Shutdown closes it; a conduit that never reaches a runtime must be
// Closed directly.
func Listen(network string) (*SocketConduit, error) {
	c := &SocketConduit{
		network: network,
		epoch:   time.Now(),
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
	c.addr = c.ln.Addr().String()
	c.wg.Add(1)
	go c.accept()
	return c, nil
}

// Deliver implements runtime.Conduit as a batch of one: encode the message,
// write its frame to the listener (dialing or re-dialing as needed),
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

// register lazily records dst as reachable by inbound frames.
// Load-then-store: on the steady-state path the node is already known and the
// check is one atomic load, where a store would take the table's mutex per
// delivery.
func (c *SocketConduit) register(dst *runtime.Node) {
	if c.nodes.load(dst.ID()) != dst {
		c.nodes.store(dst.ID(), dst)
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
		c.mu.Unlock()
		c.omu.Lock()
		if c.out != nil {
			c.out.conn.Close()
			c.out = nil
		}
		c.omu.Unlock()
		c.wg.Wait()
		if c.dir != "" {
			os.RemoveAll(c.dir)
		}
	})
	return nil
}

// idTable maps node IDs to pointers through a slice indexed by ID. A load is
// lock-free — one atomic load of the slice, one of the slot — and an ID never
// stored, or out of range, loads nil. Stores take the mutex; a store past the
// end grows the slice geometrically (at least doubling, the old slots copied
// over), so filling a table costs amortized O(1) per ID, and because growth
// copies under the same mutex no store can be lost to it. Storing nil past
// the end is a no-op: the slot already loads nil.
type idTable[T any] struct {
	mu    sync.Mutex
	slots atomic.Pointer[[]atomic.Pointer[T]]
}

func (t *idTable[T]) load(id int) *T {
	if s := t.slots.Load(); s != nil && uint(id) < uint(len(*s)) {
		return (*s)[id].Load()
	}
	return nil
}

func (t *idTable[T]) store(id int, v *T) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var cur []atomic.Pointer[T]
	if s := t.slots.Load(); s != nil {
		cur = *s
	}
	if id >= len(cur) {
		if v == nil {
			return
		}
		grown := make([]atomic.Pointer[T], max(id+1, 2*len(cur), 64))
		for i := range cur {
			grown[i].Store(cur[i].Load())
		}
		t.slots.Store(&grown)
		cur = grown
	}
	cur[id].Store(v)
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
// batch, is connection-fatal — the sender's pending deliveries fail as losses
// and the conduit stays up for the next connection — so garbage on the wire
// can never wedge the coordinator.
func (c *SocketConduit) serve(conn net.Conn) {
	defer c.wg.Done()
	defer c.dropConn(conn)
	var buf, out, bits []byte
	var cache decodeCache // decoder state: Params and interned lists, this connection's only
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
		seq, count, err := readBatchHeader(r, &cache)
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
			if node := c.nodes.load(to); node != nil {
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

// ensureConn returns the live outbound connection, dialing one (and starting
// its ack reader) if needed.
func (c *SocketConduit) ensureConn() (*peerConn, error) {
	c.omu.Lock()
	defer c.omu.Unlock()
	if c.out != nil {
		return c.out, nil
	}
	conn, err := net.DialTimeout(c.network, c.addr, time.Second)
	if err != nil {
		return nil, err
	}
	if c.redialed {
		c.redialed = false
		c.reconnects.Add(1)
	}
	pc := &peerConn{conn: conn, pending: make(map[uint64]*batchWaiter)}
	c.out = pc
	c.wg.Add(1)
	go c.readAcks(pc)
	return pc, nil
}

// kill retires a connection: detach it so the next dispatch re-dials, close
// it, and fail what was in flight on it.
func (c *SocketConduit) kill(pc *peerConn) {
	c.omu.Lock()
	if c.out == pc {
		c.out = nil
		c.redialed = true
	}
	c.omu.Unlock()
	pc.conn.Close()
	pc.failAll()
}

// defaultBatchBytes caps one staged frame's body: large enough that a full
// wave of typical protocol messages (votes, certificates of O(log² n) bits)
// coalesces into one or two writes, small enough that a frame never
// approaches MaxFrame and the server's decode stays cache-friendly.
const defaultBatchBytes = 32 << 10

// NewBatch implements runtime.Conduit: deliveries staged through the
// returned batch coalesce into multi-message frames — one write and one
// bitmap ack per frame instead of a synchronous round trip per message — with
// a window of in-flight frames that Flush settles at the round barrier. The
// batch is owned by one goroutine (the coordinator); other batches, and
// Deliver, stay independently usable on the same conduit.
func (c *SocketConduit) NewBatch() runtime.Batch {
	return &socketBatch{c: c}
}

// socketBatch is one coordinator-owned delivery wave in flight: a staging
// buffer of encoded message bodies, sealed into a batch frame when it reaches
// the size threshold (the window) or at Flush (the barrier). The stage holds
// the bodies back to back, each one's index in the wave's result slice, and
// the Params memory of the frame they will become (reset when it is sealed).
type socketBatch struct {
	c        *SocketConduit
	buf      []byte
	idxs     []int32
	memo     paramsMemo
	inflight []*batchWaiter // dispatched frames, in dispatch order
	freeW    []*batchWaiter // settled waiters, recycled across flushes
	results  []bool
	frame    []byte // frame assembly scratch, reused per dispatch
	n        int    // deliveries Added since the last Flush
}

// Add implements runtime.Batch: encode the message into the staging buffer —
// sealing and dispatching a frame when the buffer reaches the threshold, so a
// large wave pipelines as a window of in-flight frames rather than one giant
// write at the barrier. Nothing waits here.
func (b *socketBatch) Add(dst *runtime.Node, m runtime.Message) {
	idx := int32(b.n)
	b.n++
	b.c.register(dst)
	start := len(b.buf)
	buf, err := appendMessageBody(b.buf, dst.ID(), m, b.c.epoch, &b.memo)
	if err != nil {
		b.buf = b.buf[:start]
		// Only a payload outside the protocol's set — an unknown type, or
		// Params no constructor builds — gets here: a programming error, not
		// a transport condition. Fail loudly instead of folding it into the
		// loss model.
		panic(fmt.Sprintf("netconduit: %v", err))
	}
	b.buf = buf
	b.idxs = append(b.idxs, idx)
	limit := b.c.batchBytes
	if limit <= 0 {
		limit = defaultBatchBytes
	}
	if len(b.buf) >= limit {
		b.dispatch()
	}
}

// Flush implements runtime.Batch: seal what is staged, then settle the whole
// window — blocking until each in-flight frame's bitmap ack (or connection
// death) arrives — and report per-delivery results in Add order.
func (b *socketBatch) Flush() []bool {
	if len(b.idxs) > 0 {
		b.dispatch()
	}
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

// dispatch seals the stage into a batch frame and writes it, leaving its
// waiter in flight for Flush to settle. The dial is retried with bounded
// backoff, but a frame is never re-written after a write error: it, or
// in-flight frames on the dying connection, could still be processed, and a
// rewrite on a fresh connection would duplicate it or overtake them and break
// per-destination FIFO order — so the frame's deliveries fail as transport
// losses instead (at-most-once, the scheduler's loss semantics).
func (b *socketBatch) dispatch() {
	w := b.getWaiter()
	w.idxs = append(w.idxs, b.idxs...)
	b.inflight = append(b.inflight, w)
	seq := b.c.seq.Add(1)
	frame, err := appendBatchFrame(b.frame[:0], seq, len(b.idxs), b.buf)
	b.frame = frame[:0]
	b.buf = b.buf[:0]
	b.idxs = b.idxs[:0]
	b.memo = paramsMemo{}
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
		pc, err := b.c.ensureConn()
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
			b.c.kill(pc)
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
func (c *SocketConduit) readAcks(pc *peerConn) {
	defer c.wg.Done()
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
	c.kill(pc)
}
