// Package netconduit is the socket-backed rung of the transport ladder: a
// runtime.Conduit whose deliveries cross a real OS socket — TCP over the
// loopback interface or a Unix domain socket — instead of an in-process
// channel handoff. The protocol logic is untouched, and the runtime's
// transcript stays byte-identical to the simulator's (pinned by the
// equivalence suite in internal/runtime). The conduit is a loopback: it
// dials only its own listener, over one outbound connection. It has one
// delivery path, the batch (NewBatch): the coordinator stages a whole
// delivery wave and the conduit coalesces the messages of a flush into
// multi-message frames — one write, one bitmap ack — with a window of
// in-flight frames settled at the barrier. Deliver is a batch of one.
//
// # Frame format
//
// Every frame is a 4-byte big-endian length prefix followed by a body of at
// most MaxFrame bytes. The body's first byte is the frame type:
//
//	batch frame:   3 | batch version (3) | seq uvarint | count uvarint |
//	               count × message body
//	batch ack:     4 | seq uvarint | count uvarint | ⌈count/8⌉ bitmap bytes
//
// where one message body is
//
//	kind byte | flags byte | round uvarint | from uvarint | to uvarint |
//	[sent-at ticks varint, if flags&1] | [delay ns varint, if flags&2] |
//	payload
//
// A batch frame carries the bodies of a flush's messages back to back, in
// delivery order, each a runtime.Message for the node with index
// "to"; the listener routes each body in sequence — preserving the per-
// destination FIFO order the round-barrier coordinator depends on — and
// answers with a single batch ack carrying the frame's sequence number, whose
// bitmap holds each body's mailbox result (bit i, LSB-first in byte i/8, is
// body i's hand-over result: set only once the destination mailbox accepted
// the message). Message bodies are self-delimiting, so the batch carries no
// per-body length. Types 1 and 2 were the single-message frame and its ack of
// an earlier generation; nothing speaks them any more, and like every unknown
// type they are connection-fatal. SentAt crosses the wire as monotonic ticks
// relative to the conduit's epoch, which sender and receiver share: they are
// the same conduit; so does Delay, in nanoseconds. Any other flag bit is
// malformed: it cannot come from a newer peer, only from garbage.
//
// The encoding is versioned (batchVersion) and covers exactly the
// concrete gossip.Payload types the protocol produces, tagged:
//
//	0 nil
//	1 core.Intentions   params | count uvarint | count × (H u64, Z i32)
//	2 core.Vote         params | Value u64 | Index i32
//	3 core.IntentQuery  params
//	4 core.CertQuery    params
//	5 *core.Certificate params | K u64 | count uvarint |
//	                    count × (Voter i32, Value u64) | Color i32 | Owner i32
//
// Payload fields travel at their Go type's full width, little-endian (u64 is
// 8 bytes, i32 is 4), whatever values they hold: the wire carries exactly
// what an agent put in a payload, out-of-range values included, and leaves
// rejecting them to verification. A list count is bounded by the bytes left
// in the frame before anything is allocated for it.
//
// Params (n, colors, gamma bits, protocol variant) let the receiver
// reconstruct the exact same core.Params — bit widths included — via
// core.NewParams + WithProtocol. A params field is either the full block,
//
//	n uvarint | colors uvarint | gamma u64 | variant byte |
//	passes uvarint | minVotes uvarint
//
// or the one-byte marker uvarint 0 (never a valid n), meaning "the same
// Params as the previous block in this frame". The first payload carrying
// Params in a frame always writes the full block, so every frame decodes on
// its own; a marker with no block before it in its frame is malformed.
//
// The fixed-width fields and the Params marker are what version 3 changed;
// a frame of any other version, 2 included, is connection-fatal. So is every
// malformed frame (bad tag, truncated field, oversized length, garbage
// trailing bytes): the receiver drops the connection rather than guess, and
// the sender's pending deliveries fail as transport losses.
//
// PayloadBits measures a payload on this encoder; experiment table T0 uses it
// to report Protocol P's message sizes as the bytes a socket really carries.
//
// # Shared list payloads
//
// The decoder keeps, per connection, the intention lists and certificates it
// has decoded, keyed by their exact bytes after the Params field (the count ×
// 12 entry bytes of a list; K through Owner of a certificate). A payload whose
// bytes match one of them is returned as that same payload — the same
// *core.Certificate, the same Votes slice — instead of a fresh copy. Protocol
// P's Find-Min and Coherence phases broadcast the same few certificates to
// every node, and an honest intention list never changes within a run, so most
// list payloads on a connection are repeats. Only cleanly decoded payloads are
// kept; a change of Params empties the tables, so every kept payload carries
// the connection's current Params; and once their keys would pass internCap
// (4 × MaxFrame) bytes they start over. This is safe because published
// payloads are immutable (see core.Certificate and core.Intentions): receivers
// read them and never write through them, and the channel conduit already
// hands every receiver the sender's own pointer. Identical bytes decode to
// identical content, so a deviator that varies its declarations must send
// different bytes, and the first declaration a receiver records still binds.
package netconduit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/runtime"
)

// batchVersion is the batch-frame encoding version — v3 of the wire protocol.
// A receiver rejects frames speaking any other version instead of guessing.
const batchVersion = 3

// MaxFrame bounds one frame body. The largest regular protocol message is a
// certificate of O(log² n) bits, so a megabyte is orders of magnitude of
// headroom; anything larger is garbage and connection-fatal.
const MaxFrame = 1 << 20

// Frame types. 1 and 2 are retired (see the package doc) and stay unassigned.
const (
	frameBatch    byte = 3
	frameBatchAck byte = 4
)

// Payload tags.
const (
	payNil byte = iota
	payIntentions
	payVote
	payIntentQuery
	payCertQuery
	payCertificate
)

// Message body flags: a SentAt timestamp follows, a Delay follows.
const flagSentAt, flagDelay byte = 1, 2

// errCodec is the class every malformed-frame failure belongs to.
var errCodec = errors.New("netconduit: malformed frame")

func codecErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCodec, fmt.Sprintf(format, args...))
}

// variantCode maps a protocol variant to its stable wire byte.
func variantCode(v core.ProtocolVariant) (byte, error) {
	switch v {
	case "", core.ProtocolBaseline:
		return 0, nil
	case core.ProtocolLiveRetarget:
		return 1, nil
	case core.ProtocolRetransmit:
		return 2, nil
	case core.ProtocolRelaxed:
		return 3, nil
	}
	return 0, codecErr("unknown protocol variant %q", v)
}

// variantOf is variantCode's inverse.
func variantOf(code byte) (core.ProtocolVariant, error) {
	switch code {
	case 0:
		return core.ProtocolBaseline, nil
	case 1:
		return core.ProtocolLiveRetarget, nil
	case 2:
		return core.ProtocolRetransmit, nil
	case 3:
		return core.ProtocolRelaxed, nil
	}
	return "", codecErr("unknown protocol variant code %d", code)
}

// reader walks a frame body, latching the first decode failure.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) fail() {
	r.bad = true
	r.b = nil
}

func (r *reader) byte() byte {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) u32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// paramsKey is the comparable identity of one encoded core.Params.
type paramsKey struct {
	n, colors        int
	gammaBits        uint64
	variant          byte
	passes, minVotes int
}

// internCap bounds the key bytes one connection's intern tables hold. A run
// at n = 1024 publishes about 0.75 MB of distinct lists (n intention lists
// and n certificates of about q = 30 entries, 12 bytes each), so the cap
// holds a whole run; a peer sending more only makes the tables start over.
const internCap = 4 * MaxFrame

// decodeCache is one connection's decoder state. It memoizes the last
// decoded Params block — a run speaks one parameter set, so after the first
// message every block is a key comparison instead of a NewParams rebuild —
// together with the two query payloads that carry nothing else, boxed once so
// decoding a query allocates nothing. inFrame says a block has been read in
// the current frame, which is what a Params marker refers back to.
//
// intents and certs intern the list payloads decoded under p, keyed by their
// exact encoded bytes after the Params field, so a list that crosses the
// connection again is returned as the payload decoded the first time. A
// Params change empties both, and so does reaching internCap; held counts
// the key bytes they hold. Only the connection's serve goroutine touches it.
type decodeCache struct {
	key     paramsKey
	p       core.Params
	intentQ gossip.Payload // core.IntentQuery{P: p}
	certQ   gossip.Payload // core.CertQuery{P: p}
	ok      bool
	inFrame bool

	intents map[string]gossip.Payload    // core.Intentions, by its entry bytes
	certs   map[string]*core.Certificate // by its bytes from K through Owner
	held    int
}

// reserve makes room for one more entry under key, emptying both tables when
// it would take them past internCap. The caller then stores the entry.
func (c *decodeCache) reserve(key []byte) {
	if c.held+len(key) > internCap || c.intents == nil {
		c.intents = make(map[string]gossip.Payload)
		c.certs = make(map[string]*core.Certificate)
		c.held = 0
	}
	c.held += len(key)
}

// paramsMemo is one frame's encoder state for Params: the block last written
// in it. A payload whose Params equal it writes the marker instead.
type paramsMemo struct {
	p  core.Params
	ok bool
}

// paramsMarker stands in for a Params block equal to the frame's previous
// one. It is the uvarint 0 in the block's leading n field, which no valid
// Params has.
const paramsMarker = 0

// appendParams encodes p so the receiver can rebuild it exactly: the full
// block the first time in a frame and whenever p changes, the marker
// otherwise.
func appendParams(b []byte, p *core.Params, memo *paramsMemo) ([]byte, error) {
	if memo.ok && memo.p == *p {
		return append(b, paramsMarker), nil
	}
	if p.N <= 0 {
		return b, codecErr("params n = %d not positive", p.N)
	}
	code, err := variantCode(p.Proto.Variant)
	if err != nil {
		return b, err
	}
	b = binary.AppendUvarint(b, uint64(p.N))
	b = binary.AppendUvarint(b, uint64(p.NumColors))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Gamma))
	b = append(b, code)
	b = binary.AppendUvarint(b, uint64(p.Proto.Passes))
	b = binary.AppendUvarint(b, uint64(p.Proto.MinVotes))
	memo.p, memo.ok = *p, true
	return b, nil
}

// readParams decodes and validates one Params block or marker, rebuilding
// the derived fields (q, m, wire widths) through the same constructors the
// sender used. The result points into cache: valid until the next call.
func readParams(r *reader, cache *decodeCache) (*core.Params, error) {
	n := r.uvarint()
	if n == paramsMarker && !r.bad {
		if !cache.inFrame {
			return nil, codecErr("params marker with no block before it in the frame")
		}
		return &cache.p, nil
	}
	key := paramsKey{
		n:         int(n),
		colors:    int(r.uvarint()),
		gammaBits: r.u64(),
	}
	key.variant = r.byte()
	key.passes = int(r.uvarint())
	key.minVotes = int(r.uvarint())
	if r.bad {
		return nil, codecErr("truncated params")
	}
	if !cache.ok || cache.key != key {
		variant, err := variantOf(key.variant)
		if err != nil {
			return nil, err
		}
		p, err := core.NewParams(key.n, key.colors, math.Float64frombits(key.gammaBits))
		if err != nil {
			return nil, codecErr("bad params: %v", err)
		}
		p, err = p.WithProtocol(core.Protocol{Variant: variant, Passes: key.passes, MinVotes: key.minVotes})
		if err != nil {
			return nil, codecErr("bad protocol: %v", err)
		}
		cache.key, cache.p, cache.ok = key, p, true
		cache.intentQ, cache.certQ = core.IntentQuery{P: p}, core.CertQuery{P: p}
		cache.intents, cache.certs, cache.held = nil, nil, 0
	}
	cache.inFrame = true
	return &cache.p, nil
}

// Fixed widths of the list entries: core.Intent is a uint64 and an int32,
// core.WEntry an int32 and a uint64.
const (
	intentWidth = 8 + 4
	wentryWidth = 4 + 8
)

// appendPayload encodes one concrete payload. An unknown payload type is a
// programming error — the conduit carries exactly the protocol's types — and
// is reported as an error so the caller can fail loudly instead of silently
// converting it into message loss.
func appendPayload(b []byte, p gossip.Payload, memo *paramsMemo) ([]byte, error) {
	le := binary.LittleEndian
	switch m := p.(type) {
	case nil:
		return append(b, payNil), nil
	case core.Intentions:
		b = append(b, payIntentions)
		b, err := appendParams(b, &m.P, memo)
		if err != nil {
			return b, err
		}
		b = binary.AppendUvarint(b, uint64(len(m.Votes)))
		for _, v := range m.Votes {
			b = le.AppendUint64(b, v.H)
			b = le.AppendUint32(b, uint32(v.Z))
		}
		return b, nil
	case core.Vote:
		return appendVote(b, m, memo)
	case *core.Vote:
		if m == nil {
			return append(b, payNil), nil
		}
		return appendVote(b, *m, memo)
	case core.IntentQuery:
		b = append(b, payIntentQuery)
		return appendParams(b, &m.P, memo)
	case core.CertQuery:
		b = append(b, payCertQuery)
		return appendParams(b, &m.P, memo)
	case *core.Certificate:
		if m == nil {
			return append(b, payNil), nil
		}
		b = append(b, payCertificate)
		b, err := appendParams(b, &m.P, memo)
		if err != nil {
			return b, err
		}
		b = le.AppendUint64(b, m.K)
		b = binary.AppendUvarint(b, uint64(len(m.W)))
		for _, w := range m.W {
			b = le.AppendUint32(b, uint32(w.Voter))
			b = le.AppendUint64(b, w.Value)
		}
		b = le.AppendUint32(b, uint32(m.Color))
		b = le.AppendUint32(b, uint32(m.Owner))
		return b, nil
	}
	return b, codecErr("unencodable payload type %T", p)
}

// PayloadBits returns the encoded size of p in bits: p as the first payload
// of a frame, so its Params block is written in full. An unencodable payload
// returns the codec's error.
func PayloadBits(p gossip.Payload) (int, error) {
	b, err := appendPayload(nil, p, &paramsMemo{})
	if err != nil {
		return 0, err
	}
	return 8 * len(b), nil
}

func appendVote(b []byte, v core.Vote, memo *paramsMemo) ([]byte, error) {
	b = append(b, payVote)
	b, err := appendParams(b, &v.P, memo)
	if err != nil {
		return b, err
	}
	b = binary.LittleEndian.AppendUint64(b, v.Value)
	b = binary.LittleEndian.AppendUint32(b, uint32(v.Index))
	return b, nil
}

// listCount reads a list's uvarint entry count and bounds it by the bytes
// left in the frame, so a garbage count is rejected before it sizes a make.
// The division keeps the bound itself overflow-free.
func listCount(r *reader, width int) (int, bool) {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)/width) {
		return 0, false
	}
	return int(n), true
}

// readPayload decodes one payload block. An intention list or certificate
// whose bytes after the Params field match one already decoded under the
// same Params on this connection comes back as that payload, not a copy.
func readPayload(r *reader, cache *decodeCache) (gossip.Payload, error) {
	le := binary.LittleEndian
	switch tag := r.byte(); tag {
	case payNil:
		return nil, nil
	case payIntentions:
		p, err := readParams(r, cache)
		if err != nil {
			return nil, err
		}
		n, ok := listCount(r, intentWidth)
		if !ok {
			return nil, codecErr("intentions count overruns frame")
		}
		span := r.b[:n*intentWidth]
		r.b = r.b[len(span):]
		if in, ok := cache.intents[string(span)]; ok {
			return in, nil
		}
		votes := make([]core.Intent, n)
		e := span
		for i := range votes {
			votes[i] = core.Intent{H: le.Uint64(e), Z: int32(le.Uint32(e[8:intentWidth]))}
			e = e[intentWidth:]
		}
		var in gossip.Payload = core.Intentions{P: *p, Votes: votes}
		cache.reserve(span)
		cache.intents[string(span)] = in
		return in, nil
	case payVote:
		p, err := readParams(r, cache)
		if err != nil {
			return nil, err
		}
		v := core.Vote{P: *p, Value: r.u64(), Index: int32(r.u32())}
		if r.bad {
			return nil, codecErr("truncated vote")
		}
		return v, nil
	case payIntentQuery:
		if _, err := readParams(r, cache); err != nil {
			return nil, err
		}
		return cache.intentQ, nil
	case payCertQuery:
		if _, err := readParams(r, cache); err != nil {
			return nil, err
		}
		return cache.certQ, nil
	case payCertificate:
		p, err := readParams(r, cache)
		if err != nil {
			return nil, err
		}
		start := r.b
		k := r.u64()
		n, ok := listCount(r, wentryWidth)
		if !ok {
			return nil, codecErr("certificate vote count overruns frame")
		}
		// The entries, Color and Owner are fixed-width, so the span from K
		// through Owner is known here; one that overruns the frame is left
		// to the decode below to reject.
		if rest := n*wentryWidth + 8; rest <= len(r.b) {
			if c, ok := cache.certs[string(start[:len(start)-len(r.b)+rest])]; ok {
				r.b = r.b[rest:]
				return c, nil
			}
		}
		w := make([]core.WEntry, n)
		e := r.b
		for i := range w {
			w[i] = core.WEntry{Voter: int32(le.Uint32(e)), Value: le.Uint64(e[4:wentryWidth])}
			e = e[wentryWidth:]
		}
		r.b = e
		cert := &core.Certificate{P: *p, K: k, W: w, Color: core.Color(r.u32()), Owner: int32(r.u32())}
		if r.bad {
			return nil, codecErr("truncated certificate")
		}
		span := start[:len(start)-len(r.b)]
		cache.reserve(span)
		cache.certs[string(span)] = cert
		return cert, nil
	default:
		return nil, codecErr("unknown payload tag %d", tag)
	}
}

// appendMessageBody encodes one delivery's self-delimiting message body, the
// unit a batch frame repeats after its header. memo is the frame's Params
// memory: zero at the frame's first body, then threaded through the rest.
func appendMessageBody(b []byte, to int, m runtime.Message, epoch time.Time, memo *paramsMemo) ([]byte, error) {
	b = append(b, byte(m.Kind))
	var flags byte
	if !m.SentAt.IsZero() {
		flags |= flagSentAt
	}
	if m.Delay != 0 {
		flags |= flagDelay
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(m.Round))
	b = binary.AppendUvarint(b, uint64(m.From))
	b = binary.AppendUvarint(b, uint64(to))
	if flags&flagSentAt != 0 {
		b = binary.AppendVarint(b, int64(m.SentAt.Sub(epoch)))
	}
	if flags&flagDelay != 0 {
		b = binary.AppendVarint(b, int64(m.Delay))
	}
	return appendPayload(b, m.Payload, memo)
}

// readMessageBody decodes one message body, consuming exactly its bytes (the
// caller checks for trailing garbage once the frame is exhausted).
func readMessageBody(r *reader, epoch time.Time, cache *decodeCache) (to int, m runtime.Message, err error) {
	m.Kind = runtime.MsgKind(r.byte())
	flags := r.byte()
	if flags&^(flagSentAt|flagDelay) != 0 {
		return 0, m, codecErr("unknown message flags %#x", flags)
	}
	m.Round = int(r.uvarint())
	m.From = int(r.uvarint())
	to = int(r.uvarint())
	if flags&flagSentAt != 0 {
		m.SentAt = epoch.Add(time.Duration(r.varint()))
	}
	if flags&flagDelay != 0 {
		m.Delay = time.Duration(r.varint())
	}
	if r.bad {
		return 0, m, codecErr("truncated message header")
	}
	m.Payload, err = readPayload(r, cache)
	if err != nil {
		return 0, m, err
	}
	if r.bad {
		return 0, m, codecErr("truncated message body")
	}
	return to, m, nil
}

// appendBatchFrame wraps count pre-encoded message bodies as one batch frame
// (length prefix included).
func appendBatchFrame(b []byte, seq uint64, count int, bodies []byte) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = append(b, frameBatch, batchVersion)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(count))
	b = append(b, bodies...)
	body := len(b) - start - 4
	if body > MaxFrame {
		return b[:start], codecErr("batch frame body %d exceeds MaxFrame", body)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(body))
	return b, nil
}

// readBatchHeader parses a batch frame's header (the bytes after the frame-
// type byte), leaving the reader positioned at the first message body, and
// starts the frame's Params scope in cache: a marker must follow a block of
// the same frame. The count is sanity-bounded by the bytes present — each
// body is at least two bytes — so garbage cannot promise a huge batch.
func readBatchHeader(r *reader, cache *decodeCache) (seq uint64, count int, err error) {
	cache.inFrame = false
	if v := r.byte(); v != batchVersion {
		if r.bad {
			return 0, 0, codecErr("empty batch frame")
		}
		return 0, 0, codecErr("unsupported batch version %d", v)
	}
	seq = r.uvarint()
	n := r.uvarint()
	if r.bad || n == 0 || n > uint64(len(r.b)) {
		return 0, 0, codecErr("batch count %d overruns frame", n)
	}
	return seq, int(n), nil
}

// appendBatchAckFrame encodes one batch's result bitmap as a full frame:
// bit i (LSB-first within byte i/8) is message i's mailbox result.
func appendBatchAckFrame(b []byte, seq uint64, bits []byte, count int) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = append(b, frameBatchAck)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(count))
	b = append(b, bits...)
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// decodeBatchAck parses a batch ack frame body (the bytes after the frame-
// type byte). The returned bitmap aliases body.
func decodeBatchAck(body []byte) (seq uint64, bits []byte, count int, err error) {
	r := &reader{b: body}
	seq = r.uvarint()
	n := r.uvarint()
	if r.bad || n == 0 || len(r.b) != int(n+7)/8 {
		return 0, nil, 0, codecErr("malformed batch ack")
	}
	return seq, r.b, int(n), nil
}

// bitmapGet reads bit i of an LSB-first bitmap.
func bitmapGet(bits []byte, i int) bool { return bits[i/8]&(1<<(i%8)) != 0 }

// bitmapSet sets bit i of an LSB-first bitmap.
func bitmapSet(bits []byte, i int) { bits[i/8] |= 1 << (i % 8) }

// readFrame reads one length-prefixed frame body into *buf (grown as
// needed), returning the body slice. A length of zero or beyond MaxFrame is
// connection-fatal. The length prefix is read into *buf too — a local
// array's slice would escape through the io.Reader call and cost an
// allocation per frame on the steady-state path.
func readFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	if cap(*buf) < 4 {
		*buf = make([]byte, 64)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxFrame {
		return nil, codecErr("frame length %d outside (0, %d]", n, MaxFrame)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
