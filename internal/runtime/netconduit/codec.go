// Package netconduit is the socket-backed rung of the transport ladder: a
// runtime.Conduit whose deliveries cross a real OS socket — TCP over the
// loopback interface or a Unix domain socket — instead of an in-process
// channel handoff. The protocol logic is untouched, and the runtime's
// transcript stays byte-identical to the simulator's (pinned by the
// equivalence suite in internal/runtime). The conduit has one delivery path,
// the batch (runtime.BatchConduit): the coordinator stages a whole delivery
// wave and the conduit coalesces all same-peer messages of a flush into
// multi-message frames — one write, one bitmap ack — with per-peer windows of
// in-flight frames settled at the barrier. Deliver is a batch of one.
//
// # Frame format
//
// Every frame is a 4-byte big-endian length prefix followed by a body of at
// most MaxFrame bytes. The body's first byte is the frame type:
//
//	batch frame:   3 | batch version (2) | seq uvarint | count uvarint |
//	               count × message body
//	batch ack:     4 | seq uvarint | count uvarint | ⌈count/8⌉ bitmap bytes
//
// where one message body is
//
//	kind byte | flags byte | round uvarint | from uvarint | to uvarint |
//	[sent-at ticks varint, if flags&1] | payload
//
// A batch frame carries the bodies of one flush's same-peer messages back to
// back, in delivery order, each a runtime.Message for the node with index
// "to"; the listener routes each body in sequence — preserving the per-
// destination FIFO order the round-barrier coordinator depends on — and
// answers with a single batch ack carrying the frame's sequence number, whose
// bitmap holds each body's mailbox result (bit i, LSB-first in byte i/8, is
// body i's hand-over result: set only once the destination mailbox accepted
// the message). Message bodies are self-delimiting, so the batch carries no
// per-body length. Types 1 and 2 were the single-message frame and its ack of
// an earlier generation; nothing speaks them any more, and like every unknown
// type they are connection-fatal. SentAt crosses the wire as monotonic ticks
// relative to the conduit's epoch — exact when sender and receiver share the
// conduit (the single-process loopback case); cross-process latency
// calibration is the sharded-serve follow-up's problem.
//
// The encoding is versioned (batchVersion) and covers exactly the
// concrete gossip.Payload types the protocol produces, tagged:
//
//	0 nil | 1 core.Intentions | 2 core.Vote | 3 core.IntentQuery |
//	4 core.CertQuery | 5 *core.Certificate
//
// Each payload starts with its Params (n, colors, gamma bits, protocol
// variant) so the receiver reconstructs the exact same core.Params — bit
// widths included — via core.NewParams + WithProtocol. Malformed frames
// (bad tag, truncated varint, oversized length, garbage trailing bytes) are
// connection-fatal: the receiver drops the connection rather than guess, and
// the sender's pending deliveries fail as transport losses.
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

// batchVersion is the batch-frame encoding version — v2 of the wire protocol.
// A receiver rejects frames speaking any other version instead of guessing.
const batchVersion = 2

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

// flagSentAt marks a message body that carries a SentAt timestamp.
const flagSentAt byte = 1

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

// paramsKey is the comparable identity of one encoded core.Params.
type paramsKey struct {
	n, colors        int
	gammaBits        uint64
	variant          byte
	passes, minVotes int
}

// paramsCache memoizes the last decoded Params per connection: a run speaks
// one parameter set, so after the first message every decode is a key
// comparison instead of a NewParams rebuild.
type paramsCache struct {
	key paramsKey
	p   core.Params
	ok  bool
}

// appendParams encodes p so the receiver can rebuild it exactly.
func appendParams(b []byte, p core.Params) ([]byte, error) {
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
	return b, nil
}

// readParams decodes and validates one Params block, rebuilding the derived
// fields (q, m, wire widths) through the same constructors the sender used.
func readParams(r *reader, cache *paramsCache) (core.Params, error) {
	key := paramsKey{
		n:         int(r.uvarint()),
		colors:    int(r.uvarint()),
		gammaBits: r.u64(),
	}
	key.variant = r.byte()
	key.passes = int(r.uvarint())
	key.minVotes = int(r.uvarint())
	if r.bad {
		return core.Params{}, codecErr("truncated params")
	}
	if cache.ok && cache.key == key {
		return cache.p, nil
	}
	variant, err := variantOf(key.variant)
	if err != nil {
		return core.Params{}, err
	}
	p, err := core.NewParams(key.n, key.colors, math.Float64frombits(key.gammaBits))
	if err != nil {
		return core.Params{}, codecErr("bad params: %v", err)
	}
	p, err = p.WithProtocol(core.Protocol{Variant: variant, Passes: key.passes, MinVotes: key.minVotes})
	if err != nil {
		return core.Params{}, codecErr("bad protocol: %v", err)
	}
	cache.key, cache.p, cache.ok = key, p, true
	return p, nil
}

// appendPayload encodes one concrete payload. An unknown payload type is a
// programming error — the conduit carries exactly the protocol's types — and
// is reported as an error so the caller can fail loudly instead of silently
// converting it into message loss.
func appendPayload(b []byte, p gossip.Payload) ([]byte, error) {
	switch m := p.(type) {
	case nil:
		return append(b, payNil), nil
	case core.Intentions:
		b = append(b, payIntentions)
		b, err := appendParams(b, m.P)
		if err != nil {
			return b, err
		}
		b = binary.AppendUvarint(b, uint64(len(m.Votes)))
		for _, v := range m.Votes {
			b = binary.AppendUvarint(b, v.H)
			b = binary.AppendVarint(b, int64(v.Z))
		}
		return b, nil
	case core.Vote:
		return appendVote(b, m)
	case *core.Vote:
		if m == nil {
			return append(b, payNil), nil
		}
		return appendVote(b, *m)
	case core.IntentQuery:
		b = append(b, payIntentQuery)
		return appendParams(b, m.P)
	case core.CertQuery:
		b = append(b, payCertQuery)
		return appendParams(b, m.P)
	case *core.Certificate:
		if m == nil {
			return append(b, payNil), nil
		}
		b = append(b, payCertificate)
		b, err := appendParams(b, m.P)
		if err != nil {
			return b, err
		}
		b = binary.AppendUvarint(b, m.K)
		b = binary.AppendUvarint(b, uint64(len(m.W)))
		for _, w := range m.W {
			b = binary.AppendVarint(b, int64(w.Voter))
			b = binary.AppendUvarint(b, w.Value)
		}
		b = binary.AppendVarint(b, int64(m.Color))
		b = binary.AppendVarint(b, int64(m.Owner))
		return b, nil
	}
	return b, codecErr("unencodable payload type %T", p)
}

func appendVote(b []byte, v core.Vote) ([]byte, error) {
	b = append(b, payVote)
	b, err := appendParams(b, v.P)
	if err != nil {
		return b, err
	}
	b = binary.AppendUvarint(b, v.Value)
	b = binary.AppendVarint(b, int64(v.Index))
	return b, nil
}

// readPayload decodes one payload block. List lengths are sanity-bounded by
// the bytes actually present, so a garbage count cannot trigger a huge
// allocation before the truncation is noticed.
func readPayload(r *reader, cache *paramsCache) (gossip.Payload, error) {
	switch tag := r.byte(); tag {
	case payNil:
		return nil, nil
	case payIntentions:
		p, err := readParams(r, cache)
		if err != nil {
			return nil, err
		}
		n := r.uvarint()
		if r.bad || n > uint64(len(r.b)) {
			return nil, codecErr("intentions count %d overruns frame", n)
		}
		votes := make([]core.Intent, n)
		for i := range votes {
			votes[i].H = r.uvarint()
			votes[i].Z = int32(r.varint())
		}
		if r.bad {
			return nil, codecErr("truncated intentions")
		}
		return core.Intentions{P: p, Votes: votes}, nil
	case payVote:
		p, err := readParams(r, cache)
		if err != nil {
			return nil, err
		}
		v := core.Vote{P: p, Value: r.uvarint(), Index: int32(r.varint())}
		if r.bad {
			return nil, codecErr("truncated vote")
		}
		return v, nil
	case payIntentQuery:
		p, err := readParams(r, cache)
		if err != nil {
			return nil, err
		}
		return core.IntentQuery{P: p}, nil
	case payCertQuery:
		p, err := readParams(r, cache)
		if err != nil {
			return nil, err
		}
		return core.CertQuery{P: p}, nil
	case payCertificate:
		p, err := readParams(r, cache)
		if err != nil {
			return nil, err
		}
		k := r.uvarint()
		n := r.uvarint()
		if r.bad || n > uint64(len(r.b)) {
			return nil, codecErr("certificate vote count %d overruns frame", n)
		}
		w := make([]core.WEntry, n)
		for i := range w {
			w[i].Voter = int32(r.varint())
			w[i].Value = r.uvarint()
		}
		cert := &core.Certificate{P: p, K: k, W: w, Color: core.Color(r.varint()), Owner: int32(r.varint())}
		if r.bad {
			return nil, codecErr("truncated certificate")
		}
		return cert, nil
	default:
		return nil, codecErr("unknown payload tag %d", tag)
	}
}

// appendMessageBody encodes one delivery's self-delimiting message body, the
// unit a batch frame repeats after its header.
func appendMessageBody(b []byte, to int, m runtime.Message, epoch time.Time) ([]byte, error) {
	b = append(b, byte(m.Kind))
	var flags byte
	if !m.SentAt.IsZero() {
		flags |= flagSentAt
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(m.Round))
	b = binary.AppendUvarint(b, uint64(m.From))
	b = binary.AppendUvarint(b, uint64(to))
	if flags&flagSentAt != 0 {
		b = binary.AppendVarint(b, int64(m.SentAt.Sub(epoch)))
	}
	return appendPayload(b, m.Payload)
}

// readMessageBody decodes one message body, consuming exactly its bytes (the
// caller checks for trailing garbage once the frame is exhausted).
func readMessageBody(r *reader, epoch time.Time, cache *paramsCache) (to int, m runtime.Message, err error) {
	m.Kind = runtime.MsgKind(r.byte())
	flags := r.byte()
	m.Round = int(r.uvarint())
	m.From = int(r.uvarint())
	to = int(r.uvarint())
	if flags&flagSentAt != 0 {
		m.SentAt = epoch.Add(time.Duration(r.varint()))
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
// type byte), leaving the reader positioned at the first message body. The
// count is sanity-bounded by the bytes present — each body is at least two
// bytes — so garbage cannot promise a huge batch.
func readBatchHeader(r *reader) (seq uint64, count int, err error) {
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
