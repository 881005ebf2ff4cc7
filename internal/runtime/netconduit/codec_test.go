package netconduit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	stdruntime "runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/runtime"
	"repro/internal/theory"
)

// encodeOne encodes one message as a batch frame of one and returns the
// frame body after the frame-type byte — what the server's decode sees.
func encodeOne(t testing.TB, seq uint64, to int, m runtime.Message, epoch time.Time) []byte {
	t.Helper()
	return encodeBatch(t, seq, []int{to}, []runtime.Message{m}, epoch)
}

// decodeBatch is the server's decode of a batch frame body (the bytes after
// the frame-type byte) as a new connection's first frame: the header, count
// message bodies, and the trailing-byte check.
func decodeBatch(body []byte, epoch time.Time) (seq uint64, tos []int, ms []runtime.Message, err error) {
	return decodeBatchOn(&decodeCache{}, body, epoch)
}

// decodeBatchOn is decodeBatch on one connection's decoder state, which
// carries over from the frames decoded on it before.
func decodeBatchOn(cache *decodeCache, body []byte, epoch time.Time) (seq uint64, tos []int, ms []runtime.Message, err error) {
	r := &reader{b: body}
	seq, count, err := readBatchHeader(r, cache)
	if err != nil {
		return 0, nil, nil, err
	}
	for i := 0; i < count; i++ {
		to, m, err := readMessageBody(r, epoch, cache)
		if err != nil {
			return 0, nil, nil, err
		}
		tos, ms = append(tos, to), append(ms, m)
	}
	if len(r.b) != 0 {
		return 0, nil, nil, codecErr("%d trailing bytes after payload", len(r.b))
	}
	return seq, tos, ms, nil
}

// encodeBatch encodes messages ms for nodes tos as one batch frame and
// returns its body after the frame-type byte — decodeBatch's input.
func encodeBatch(t testing.TB, seq uint64, tos []int, ms []runtime.Message, epoch time.Time) []byte {
	t.Helper()
	var bodies []byte
	var memo paramsMemo
	for i, m := range ms {
		var err error
		if bodies, err = appendMessageBody(bodies, tos[i], m, epoch, &memo); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	frame, err := appendBatchFrame(nil, seq, len(ms), bodies)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return frame[5:] // skip length prefix + frame type
}

// decodeOne is the server's decode of a one-message batch frame body,
// trailing-byte check included.
func decodeOne(body []byte, epoch time.Time) (seq uint64, to int, m runtime.Message, err error) {
	seq, tos, ms, err := decodeBatch(body, epoch)
	if err != nil {
		return 0, 0, m, err
	}
	if len(ms) != 1 {
		return 0, 0, m, codecErr("batch of %d, want 1", len(ms))
	}
	return seq, tos[0], ms[0], nil
}

// roundTrip encodes one message as a frame and decodes it back through the
// same epoch, failing the test on any mismatch.
func roundTrip(t *testing.T, m runtime.Message, to int) runtime.Message {
	t.Helper()
	epoch := time.Now()
	seq, gotTo, got, err := decodeOne(encodeOne(t, 7, to, m, epoch), epoch)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if seq != 7 || gotTo != to {
		t.Fatalf("seq/to = %d/%d, want 7/%d", seq, gotTo, to)
	}
	return got
}

func testParams(t testing.TB) core.Params {
	t.Helper()
	p, err := core.NewParams(64, 2, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCodecRoundTripPayloads pins that every concrete protocol payload
// crosses the frame codec content-identical, Params (including the derived
// unexported wire widths — Params is comparable, so == checks them all) and
// SizeBits included.
func TestCodecRoundTripPayloads(t *testing.T) {
	for i, payload := range testPayloads(t) {
		m := runtime.Message{Kind: runtime.MsgPush, Round: 13, From: 5, Payload: payload}
		got := roundTrip(t, m, 9)
		if got.Kind != m.Kind || got.Round != m.Round || got.From != m.From {
			t.Fatalf("payload %d: header changed: %+v vs %+v", i, got, m)
		}
		want := payload
		if c, ok := payload.(*core.Certificate); ok && len(c.W) == 0 {
			// A nil and an empty vote multiset are the same certificate; the
			// codec does not distinguish them.
			cc := *c
			cc.W = []core.WEntry{}
			want = &cc
		}
		if !reflect.DeepEqual(got.Payload, want) {
			t.Fatalf("payload %d changed across the wire:\nsent %#v\ngot  %#v", i, payload, got.Payload)
		}
		if payload != nil && got.Payload.SizeBits() != payload.SizeBits() {
			t.Fatalf("payload %d: SizeBits %d -> %d", i, payload.SizeBits(), got.Payload.SizeBits())
		}
	}
}

// foreignPayload is a gossip.Payload the protocol never produces.
type foreignPayload struct{}

func (foreignPayload) SizeBits() int { return 1 }

// TestPayloadBitsShape pins Theorem 4's O(log² n) message shape on the bytes
// the socket sends, for a certificate of ⌈4μ⌉ votes (μ = theory.ExpectedVotes,
// the good-execution upper band) and a full intention list. Fixed-width fields
// exceed the paper's log-width accounting (SizeBits) at small n, so the test
// pins the encoding's cost per entry and that its overhead over SizeBits
// shrinks with n, not socket bits ≤ theory.MaxMessageBits.
func TestPayloadBitsShape(t *testing.T) {
	bits := func(p gossip.Payload) int {
		t.Helper()
		b, err := PayloadBits(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	prevCert, prevIntent := math.Inf(1), math.Inf(1)
	for _, logn := range []int{6, 8, 10, 12, 14, 16, 20} {
		n := 1 << logn
		p := core.MustParams(n, 2, 3)
		k := int(math.Ceil(4 * theory.ExpectedVotes(p, n)))
		w := make([]core.WEntry, k)
		for i := range w {
			w[i] = core.WEntry{Voter: int32(i % n), Value: p.M}
		}
		cert := &core.Certificate{P: p, K: p.M - 1, W: w, Color: 1, Owner: int32(n - 1)}
		empty := &core.Certificate{P: p, K: p.M - 1, Color: 1, Owner: int32(n - 1)}
		votes := make([]core.Intent, p.Q)
		for i := range votes {
			votes[i] = core.Intent{H: p.M, Z: int32(n - 1)}
		}
		intents := core.Intentions{P: p, Votes: votes}

		certBits, emptyBits := bits(cert), bits(empty)
		countBytes := len(binary.AppendUvarint(nil, uint64(k)))
		if got, want := certBits-emptyBits, 96*k+8*(countBytes-1); got != want {
			t.Errorf("n=2^%d: %d W entries cost %d bits, want %d", logn, k, got, want)
		}
		if emptyBits > 272 {
			t.Errorf("n=2^%d: empty certificate is %d bits, want <= 272", logn, emptyBits)
		}
		certRatio := float64(certBits) / float64(cert.SizeBits())
		intentRatio := float64(bits(intents)) / float64(intents.SizeBits())
		if certRatio > prevCert || intentRatio > prevIntent {
			t.Errorf("n=2^%d: socket : SizeBits ratio rose (certificate %.3f after %.3f, intentions %.3f after %.3f)",
				logn, certRatio, prevCert, intentRatio, prevIntent)
		}
		prevCert, prevIntent = certRatio, intentRatio
		t.Logf("n=2^%d: certificate %d entries %d bits (%.2fx SizeBits), empty %d bits, intentions %.2fx",
			logn, k, certBits, certRatio, emptyBits, intentRatio)
	}
	if _, err := PayloadBits(foreignPayload{}); !errors.Is(err, errCodec) {
		t.Fatalf("PayloadBits(foreign payload) error = %v, want a codec error", err)
	}
}

// testPayloads is one of every concrete payload shape the codec carries,
// under all three protocol variants.
func testPayloads(t testing.TB) []gossip.Payload {
	p := testParams(t)
	relaxed, err := p.WithProtocol(core.Protocol{Variant: core.ProtocolRelaxed, MinVotes: 3})
	if err != nil {
		t.Fatal(err)
	}
	retrans, err := p.WithProtocol(core.Protocol{Variant: core.ProtocolRetransmit, Passes: 3})
	if err != nil {
		t.Fatal(err)
	}
	return []gossip.Payload{
		nil,
		core.Intentions{P: p, Votes: []core.Intent{{H: 1, Z: 0}, {H: 99, Z: 63}}},
		core.Vote{P: p, Value: 12345, Index: 4},
		core.Vote{P: retrans, Value: 1, Index: 17},
		core.IntentQuery{P: p},
		core.CertQuery{P: relaxed},
		&core.Certificate{
			P: p, K: 77,
			W:     []core.WEntry{{Voter: 3, Value: 9}, {Voter: 61, Value: 140608}},
			Color: 1, Owner: 3,
		},
		&core.Certificate{P: p, K: 0, W: nil, Color: core.ColorBot, Owner: 0},
	}
}

// TestCodecVotePointer pins that a *Vote encodes like its value: handlers
// accept both shapes, and the wire keeps the simpler one.
func TestCodecVotePointer(t *testing.T) {
	p := testParams(t)
	v := &core.Vote{P: p, Value: 8, Index: 1}
	got := roundTrip(t, runtime.Message{Kind: runtime.MsgVote, Round: 30, From: 2, Payload: v}, 3)
	if !reflect.DeepEqual(got.Payload, *v) {
		t.Fatalf("pointer vote decoded to %#v, want value %#v", got.Payload, *v)
	}
}

// TestCodecSentAtTicks pins the mono-relative timestamp: a SentAt stamped
// after the epoch survives the wire to sub-nanosecond identity when both
// ends share the epoch, and the zero time stays zero (untimed scheduler
// traffic must not grow a timestamp).
func TestCodecSentAtTicks(t *testing.T) {
	p := testParams(t)
	m := runtime.Message{Kind: runtime.MsgQuery, Round: 1, From: 0, Payload: core.IntentQuery{P: p}}
	if got := roundTrip(t, m, 1); !got.SentAt.IsZero() {
		t.Fatalf("zero SentAt decoded as %v", got.SentAt)
	}
	epoch := time.Now()
	m.SentAt = epoch.Add(1500 * time.Microsecond)
	_, _, got, err := decodeOne(encodeOne(t, 1, 1, m, epoch), epoch)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.SentAt.Sub(m.SentAt); d != 0 {
		t.Fatalf("SentAt drifted %v across the wire", d)
	}
}

// TestCodecDelay pins the link delay on the wire: it crosses to the
// nanosecond beside a SentAt and without one, and a message with none
// writes neither the flag nor the field.
func TestCodecDelay(t *testing.T) {
	p := testParams(t)
	epoch := time.Now()
	m := runtime.Message{Kind: runtime.MsgPush, Round: 2, From: 3, Payload: core.IntentQuery{P: p}}
	plain := encodeOne(t, 1, 4, m, epoch)
	for _, sentAt := range []time.Time{{}, epoch.Add(time.Millisecond)} {
		m.SentAt = sentAt
		for _, delay := range []time.Duration{1, 37 * time.Microsecond, 10 * time.Second} {
			m.Delay = delay
			_, _, got, err := decodeOne(encodeOne(t, 1, 4, m, epoch), epoch)
			if err != nil {
				t.Fatal(err)
			}
			if got.Delay != delay || !got.SentAt.Equal(sentAt) {
				t.Fatalf("delay %v sent at %v decoded as %v at %v", delay, sentAt, got.Delay, got.SentAt)
			}
		}
	}
	if flags := plain[4]; flags&flagDelay != 0 {
		t.Fatalf("a message with no delay carries flags %#x", flags)
	}
}

// TestCodecParamsCache pins the per-connection Params memoization and the
// once-per-frame rule: the second decode of the same block returns the cached
// value, the encoder writes the marker for a repeat in the same frame, and the
// marker decodes to the block before it.
func TestCodecParamsCache(t *testing.T) {
	p := testParams(t)
	var memo paramsMemo
	b, err := appendParams(nil, &p, &memo)
	if err != nil {
		t.Fatal(err)
	}
	var cache decodeCache
	first, err := readParams(&reader{b: b}, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if *first != p {
		t.Fatalf("decoded params %+v != original %+v", first, p)
	}
	if !cache.ok {
		t.Fatal("cache not primed")
	}
	second, err := readParams(&reader{b: b}, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if *second != p {
		t.Fatalf("cached params %+v != original %+v", second, p)
	}
	marker, err := appendParams(nil, &p, &memo)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marker, []byte{paramsMarker}) {
		t.Fatalf("repeated params encoded as % x, want the marker", marker)
	}
	third, err := readParams(&reader{b: marker}, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if *third != p {
		t.Fatalf("marker decoded to %+v, want %+v", third, p)
	}
}

// TestCodecExtremeValues pins that the wire carries exactly what an agent put
// in a payload, out-of-range values included: rejecting them is
// verification's job, not the transport's.
func TestCodecExtremeValues(t *testing.T) {
	p := testParams(t)
	payloads := []gossip.Payload{
		core.Intentions{P: p, Votes: []core.Intent{
			{H: math.MaxUint64, Z: -1}, {H: 0, Z: math.MinInt32}, {H: 1, Z: math.MaxInt32},
		}},
		core.Vote{P: p, Value: math.MaxUint64, Index: -1},
		core.Vote{P: p, Value: 0, Index: math.MinInt32},
		&core.Certificate{
			P: p, K: math.MaxUint64,
			W:     []core.WEntry{{Voter: -1, Value: math.MaxUint64}, {Voter: math.MinInt32, Value: 0}},
			Color: core.ColorBot, Owner: math.MaxInt32,
		},
		&core.Certificate{P: p, K: 0, W: []core.WEntry{}, Color: math.MaxInt32, Owner: -1},
	}
	for i, payload := range payloads {
		got := roundTrip(t, runtime.Message{Kind: runtime.MsgReply, Round: 2, From: 1, Payload: payload}, 4)
		if !reflect.DeepEqual(got.Payload, payload) {
			t.Fatalf("payload %d changed across the wire:\nsent %#v\ngot  %#v", i, payload, got.Payload)
		}
	}
}

// TestCodecParamsSwitchMidFrame pins the once-per-frame rule across a change
// of Params: each payload repeats the previous block as the marker, and the
// full block is re-sent exactly where the Params switch — including back to
// a set the frame carried before — so the frame still round-trips.
func TestCodecParamsSwitchMidFrame(t *testing.T) {
	p := testParams(t)
	relaxed, err := p.WithProtocol(core.Protocol{Variant: core.ProtocolRelaxed, MinVotes: 3})
	if err != nil {
		t.Fatal(err)
	}
	payloads := []gossip.Payload{
		nil,
		core.Vote{P: p, Value: 1},
		core.Vote{P: p, Value: 2},
		core.CertQuery{P: relaxed},
		core.IntentQuery{P: relaxed},
		core.Intentions{P: p, Votes: []core.Intent{{H: 3, Z: 4}}},
		&core.Certificate{P: p, K: 5, W: []core.WEntry{{Voter: 1, Value: 6}}, Color: 1, Owner: 2},
	}
	// wantBlock[i]: payload i writes the full block rather than the marker.
	wantBlock := []bool{false, true, false, true, false, true, false}
	epoch := time.Now()
	var memo paramsMemo
	var tos []int
	var ms []runtime.Message
	for i, payload := range payloads {
		m := runtime.Message{Kind: runtime.MsgPush, Round: 9, From: 1, Payload: payload}
		body, err := appendMessageBody(nil, 2, m, epoch, &memo)
		if err != nil {
			t.Fatal(err)
		}
		// Kind, flags, round, from and to take one byte each here, then the
		// payload tag: the Params field starts at offset 6.
		if payload != nil {
			if block := body[6] != paramsMarker; block != wantBlock[i] {
				t.Errorf("payload %d: full block written = %v, want %v", i, block, wantBlock[i])
			}
		}
		tos, ms = append(tos, 2), append(ms, m)
	}
	_, gotTos, got, err := decodeBatch(encodeBatch(t, 1, tos, ms, epoch), epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTos, tos) || !reflect.DeepEqual(got, ms) {
		t.Fatalf("frame changed across the wire:\nsent %+v\ngot  %+v", ms, got)
	}
}

// TestCodecParamsMarkerScope pins that a marker refers back only within its
// own frame: a frame whose first Params field is the marker is malformed
// (the "leading marker" garbage case) even on a connection whose previous
// frame carried a block.
func TestCodecParamsMarkerScope(t *testing.T) {
	p := testParams(t)
	epoch := time.Now()
	m := runtime.Message{Kind: runtime.MsgVote, Round: 3, From: 1, Payload: core.Vote{P: p, Value: 5}}
	var cache decodeCache
	r := &reader{b: encodeOne(t, 1, 2, m, epoch)}
	if _, _, err := readBatchHeader(r, &cache); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMessageBody(r, epoch, &cache); err != nil {
		t.Fatal(err)
	}
	r = &reader{b: leadingMarkerBody(t)}
	if _, _, err := readBatchHeader(r, &cache); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMessageBody(r, epoch, &cache); !errors.Is(err, errCodec) {
		t.Fatalf("marker leading a frame after a block in the previous frame: err = %v, want a codec error", err)
	}
}

// Layout of voteBody's one-message batch frame body: an 8-byte header
// (version, seq, count, kind, flags, round, from, to — all single-byte
// varints here), the payload tag, a 13-byte Params block (n and colors one
// byte each, gamma 8, variant, passes, minVotes one each), then the vote's
// Value (8) and Index (4).
const (
	voteHeaderLen = 8
	voteParamsAt  = voteHeaderLen + 1
	voteParamsLen = 13
)

// voteBody is one valid single-vote batch frame body.
func voteBody(t testing.TB) []byte {
	return encodeOne(t, 1, 2, runtime.Message{
		Kind: runtime.MsgPush, Round: 3, From: 1,
		Payload: core.Vote{P: testParams(t), Value: 5},
	}, time.Now())
}

// leadingMarkerBody is voteBody with its Params block replaced by the
// marker: a frame whose first payload refers to a block that was never sent.
func leadingMarkerBody(t testing.TB) []byte {
	body := voteBody(t)
	b := append([]byte{}, body[:voteParamsAt]...)
	b = append(b, paramsMarker)
	return append(b, body[voteParamsAt+voteParamsLen:]...)
}

// TestCodecAckRoundTrip covers both polarities of every bit of a batch ack,
// across a byte boundary.
func TestCodecAckRoundTrip(t *testing.T) {
	const count = 11
	for _, ok := range []bool{true, false} {
		seq, bits, n, err := decodeBatchAck(ackFrame(ok)[5:])
		if err != nil || seq != 42 || n != count {
			t.Fatalf("ack round trip: seq=%d count=%d err=%v", seq, n, err)
		}
		for i := 0; i < count; i++ {
			if got, want := bitmapGet(bits, i), ok == (i%3 == 0); got != want {
				t.Fatalf("ack bit %d = %v, want %v", i, got, want)
			}
		}
	}
}

// ackFrame is a full batch-ack frame of 11 results, sequence number 42, with
// bit i set exactly when (i%3 == 0) == ok.
func ackFrame(ok bool) []byte {
	const count = 11
	sent := make([]byte, (count+7)/8)
	for i := 0; i < count; i++ {
		if ok == (i%3 == 0) {
			bitmapSet(sent, i)
		}
	}
	return appendBatchAckFrame(nil, 42, sent, count)
}

// TestCodecRejectsMalformed walks the garbage taxonomy: every malformed body
// must come back as a codec error, never a panic or a silent success.
func TestCodecRejectsMalformed(t *testing.T) {
	for name, b := range malformedBatchBodies(t) {
		if _, _, _, err := decodeOne(b, time.Now()); !errors.Is(err, errCodec) {
			t.Errorf("%s: err = %v, want a codec error", name, err)
		}
	}
	for name, b := range malformedAcks {
		if _, _, _, err := decodeBatchAck(b); !errors.Is(err, errCodec) {
			t.Errorf("%s: err = %v, want a codec error", name, err)
		}
	}
}

// malformedAcks is the garbage taxonomy of batch ack bodies.
var malformedAcks = map[string][]byte{
	"truncated ack":       {0x01},
	"ack of zero":         {0x01, 0x00},
	"ack bitmap short":    {0x01, 0x09, 0xFF},
	"ack bitmap too long": {0x01, 0x01, 0x01, 0x00},
}

// malformedBatchBodies is the garbage taxonomy of batch frame bodies, each
// derived from one valid single-vote body.
func malformedBatchBodies(t testing.TB) map[string][]byte {
	body := voteBody(t)
	return map[string][]byte{
		"empty":            {},
		"bad version":      append([]byte{99}, body[1:]...),
		"version 2":        append([]byte{2}, body[1:]...),
		"zero count":       {batchVersion, 1, 0},
		"truncated header": body[:4],
		"truncated params": body[:voteParamsAt+7],
		"truncated vote":   body[:len(body)-2],
		"leading marker":   leadingMarkerBody(t),
		"trailing bytes":   append(append([]byte{}, body...), 0xAA),
		"bad payload tag":  append(append([]byte{}, body[:voteHeaderLen]...), 0x7F),
		"unknown flag bit": withFlags(body, 1<<2),
	}
}

// withFlags is body (voteBody's layout) with its flags byte replaced.
func withFlags(body []byte, flags byte) []byte {
	b := append([]byte{}, body...)
	b[4] = flags
	return b
}

// TestCodecRejectsHugeCounts pins the allocation guard: a garbage list count
// whose fixed-width entries would overrun the frame is rejected before any
// allocation of that size — including a count no larger than the bytes left,
// which a one-byte-per-entry bound would have let through.
func TestCodecRejectsHugeCounts(t *testing.T) {
	for name, body := range overrunCountBodies(t) {
		var err error
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		const reps = 8
		for i := 0; i < reps; i++ {
			_, _, _, err = decodeOne(body, time.Now())
		}
		stdruntime.ReadMemStats(&after)
		if !errors.Is(err, errCodec) {
			t.Errorf("%s: err = %v, want a codec error", name, err)
		}
		// Honouring the count would allocate 64 KiB a decode; the rejection
		// itself costs an error value.
		if per := (after.TotalAlloc - before.TotalAlloc) / reps; per > 16<<10 {
			t.Errorf("%s: rejecting allocated %d bytes a decode", name, per)
		}
	}
}

// overrunCountBodies are one-message batch bodies whose list count overruns
// the frame: an intentions payload claiming 2^56 entries in a few dozen
// bytes, and an intentions and a certificate payload claiming 4096 entries
// followed by 4096 bytes — one byte an entry where each needs twelve.
func overrunCountBodies(t testing.TB) map[string][]byte {
	p := testParams(t)
	msg := func(payload gossip.Payload) []byte {
		return encodeOne(t, 1, 1, runtime.Message{Kind: runtime.MsgReply, Round: 1, From: 1, Payload: payload}, time.Now())
	}
	// Each empty list's count is a single zero byte: the intentions count
	// ends the body, the certificate's sits before Color and Owner.
	intents := msg(core.Intentions{P: p})
	intents = intents[:len(intents)-1]
	cert := msg(&core.Certificate{P: p})
	cert = cert[:len(cert)-1-8]
	const count = 4096
	fill := make([]byte, count)
	return map[string][]byte{
		"intentions 2^56":            binary.AppendUvarint(append([]byte{}, intents...), 1<<56),
		"intentions bytes, entries":  append(binary.AppendUvarint(append([]byte{}, intents...), count), fill...),
		"certificate bytes, entries": append(binary.AppendUvarint(append([]byte{}, cert...), count), fill...),
	}
}

// readFrameInputs are length-prefixed inputs to readFrame: a zero and an
// oversized length, both connection-fatal codec errors, and a body truncated
// by the end of the stream, an I/O error.
var readFrameInputs = map[string][]byte{
	"zero length":      {0, 0, 0, 0},
	"oversized length": {0xFF, 0xFF, 0xFF, 0xFF},
	"truncated body":   {0, 0, 0, 9, 1, 2},
}

// TestReadFrameBounds pins the frame-length guard: zero and oversized
// lengths are connection-fatal codec errors, and a truncated body surfaces
// as an I/O error — all without allocating MaxFrame-scale buffers for
// garbage.
func TestReadFrameBounds(t *testing.T) {
	for name, in := range readFrameInputs {
		var buf []byte
		_, err := readFrame(bytes.NewReader(in), &buf)
		if err == nil {
			t.Errorf("%s: no error", name)
		}
		if name != "truncated body" && !errors.Is(err, errCodec) {
			t.Errorf("%s: err = %v, want a codec error", name, err)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to readFrame, the first parser every
// inbound byte meets on both sides of a connection. It must never panic and
// never size its buffer past MaxFrame; a length of zero or above MaxFrame must
// be a codec error; a stream shorter than its length must fail; and anything
// else must come back as exactly the body the length announced. Seeds: the
// TestReadFrameBounds inputs and a valid ack frame.
func FuzzReadFrame(f *testing.F) {
	for _, in := range readFrameInputs {
		f.Add(in)
	}
	f.Add(ackFrame(true))
	f.Fuzz(func(t *testing.T, in []byte) {
		var buf []byte
		body, err := readFrame(bytes.NewReader(in), &buf)
		if cap(buf) > MaxFrame {
			t.Fatalf("buffer grown to %d bytes, past MaxFrame", cap(buf))
		}
		if len(in) < 4 {
			if err == nil {
				t.Fatal("no length prefix, no error")
			}
			return
		}
		n := binary.BigEndian.Uint32(in)
		switch {
		case n == 0 || n > MaxFrame:
			if !errors.Is(err, errCodec) {
				t.Fatalf("length %d: err = %v, want a codec error", n, err)
			}
		case uint64(len(in)) < 4+uint64(n):
			if err == nil {
				t.Fatalf("length %d with %d body bytes: no error", n, len(in)-4)
			}
		case err != nil || !bytes.Equal(body, in[4:4+n]):
			t.Fatalf("length %d: got % x, %v; want the %d bytes after the prefix", n, body, err, n)
		}
	})
}

// FuzzDecodeBatchAck feeds arbitrary bytes to the ack parser every outbound
// connection's reader runs. What it rejects must be a codec error; what it
// accepts must round-trip through appendBatchAckFrame to the same sequence
// number, count and bitmap. Seeds: the TestCodecAckRoundTrip frames and the
// malformed-ack table.
func FuzzDecodeBatchAck(f *testing.F) {
	for _, ok := range []bool{true, false} {
		f.Add(ackFrame(ok)[5:])
	}
	for _, b := range malformedAcks {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		seq, bits, count, err := decodeBatchAck(body)
		if err != nil {
			if !errors.Is(err, errCodec) {
				t.Fatalf("rejected with %v, not a codec error", err)
			}
			return
		}
		frame := appendBatchAckFrame(nil, seq, bits, count)
		if frame[4] != frameBatchAck {
			t.Fatalf("re-encoded frame type %d", frame[4])
		}
		seq2, bits2, count2, err := decodeBatchAck(frame[5:])
		if err != nil || seq2 != seq || count2 != count || !bytes.Equal(bits2, bits) {
			t.Fatalf("ack changed across a round trip: (%d, %d, % x) -> (%d, %d, % x), err %v",
				seq, count, bits, seq2, count2, bits2, err)
		}
	})
}

// FuzzReadBatch feeds arbitrary bytes to the batch-frame parser the serve loop
// runs on every inbound frame: readBatchHeader, count × readMessageBody, and
// the trailing-byte check. It must never panic; what it rejects must be a
// codec error; and what it accepts must round-trip — re-encoding the decoded
// messages gives a frame that decodes to the same sequence number,
// destinations and messages. The invariant is on the decoded messages, not
// the bytes: the encoder may write a Params marker where the input spelled
// the block out. Seeds: the malformed-frame and overrun-count tables, one
// valid frame carrying every payload shape, one switching Params mid-frame,
// one with link delays beside a SentAt and without one, and one repeating a certificate and an intention list — the decoder's
// interned path — with a copy whose last Owner differs in one byte.
func FuzzReadBatch(f *testing.F) {
	for _, b := range malformedBatchBodies(f) {
		f.Add(b)
	}
	for _, b := range overrunCountBodies(f) {
		f.Add(b)
	}
	epoch := time.Now()
	var tos []int
	var ms []runtime.Message
	for i, payload := range testPayloads(f) {
		m := runtime.Message{Kind: runtime.MsgKind(i % 5), Round: 40 + i, From: i, Payload: payload}
		if i%2 == 0 {
			m.SentAt = epoch.Add(time.Duration(i) * time.Microsecond)
		}
		tos, ms = append(tos, 3*i), append(ms, m)
	}
	f.Add(encodeBatch(f, 9, tos, ms, epoch))
	slices.Reverse(ms)
	f.Add(encodeBatch(f, 10, tos, ms, epoch))
	delayed := []runtime.Message{
		{Kind: runtime.MsgPush, Round: 1, From: 2, Payload: ms[0].Payload, SentAt: epoch.Add(time.Millisecond), Delay: 150 * time.Microsecond},
		{Kind: runtime.MsgReply, Round: 1, From: 3, Payload: nil, Delay: time.Second},
	}
	f.Add(encodeBatch(f, 11, []int{4, 5}, delayed, epoch))
	cert, in, _ := internPayloads(f)
	repeats := framed(f, cert, in, in, cert)
	f.Add(repeats)
	owner := slices.Clone(repeats)
	owner[len(owner)-4]++ // the last certificate's Owner, little-endian
	f.Add(owner)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxFrame {
			return // readFrame never hands the parser more
		}
		seq, tos, ms, err := decodeBatch(body, epoch)
		if err != nil {
			if !errors.Is(err, errCodec) {
				t.Fatalf("rejected with %v, not a codec error", err)
			}
			return
		}
		seq2, tos2, ms2, err := decodeBatch(encodeBatch(t, seq, tos, ms, epoch), epoch)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if seq2 != seq || !reflect.DeepEqual(tos2, tos) {
			t.Fatalf("header changed across a round trip: seq %d -> %d, to %v -> %v", seq, seq2, tos, tos2)
		}
		for i := range ms {
			if !sameMessage(ms[i], ms2[i], epoch) {
				t.Fatalf("message %d changed across a round trip:\nfirst  %#v\nsecond %#v", i, ms[i], ms2[i])
			}
		}
	})
}

// sameMessage reports whether two decoded messages carry the same content:
// header, SentAt as its tick offset from the epoch (what the wire carries),
// and payload. Payloads compare through %#v rather than reflect.DeepEqual
// because NewParams admits a NaN gamma, and NaN != NaN.
func sameMessage(a, b runtime.Message, epoch time.Time) bool {
	return a.Kind == b.Kind && a.Round == b.Round && a.From == b.From && a.Delay == b.Delay &&
		a.SentAt.IsZero() == b.SentAt.IsZero() &&
		(a.SentAt.IsZero() || a.SentAt.Sub(epoch) == b.SentAt.Sub(epoch)) &&
		fmt.Sprintf("%#v", a.Payload) == fmt.Sprintf("%#v", b.Payload)
}

// mustDecodeOn decodes batch frame bodies in order on one connection's
// decoder state, as the serve loop does, and returns every message's payload.
func mustDecodeOn(t testing.TB, cache *decodeCache, bodies ...[]byte) []gossip.Payload {
	t.Helper()
	var out []gossip.Payload
	for _, body := range bodies {
		_, _, ms, err := decodeBatchOn(cache, body, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			out = append(out, m.Payload)
		}
	}
	return out
}

// framed encodes payloads as one batch frame body, one message each.
func framed(t testing.TB, payloads ...gossip.Payload) []byte {
	t.Helper()
	tos := make([]int, len(payloads))
	ms := make([]runtime.Message, len(payloads))
	for i, p := range payloads {
		ms[i] = runtime.Message{Kind: runtime.MsgReply, Round: 5, From: i, Payload: p}
	}
	return encodeBatch(t, 1, tos, ms, time.Time{})
}

// shared reports whether two decoded list payloads are the same interned
// value: the same certificate pointer, or intention lists on the same array.
func shared(a, b gossip.Payload) bool {
	switch a := a.(type) {
	case *core.Certificate:
		b, ok := b.(*core.Certificate)
		return ok && a == b
	case core.Intentions:
		b, ok := b.(core.Intentions)
		return ok && len(a.Votes) > 0 && len(b.Votes) > 0 && &a.Votes[0] == &b.Votes[0]
	}
	return false
}

// internPayloads is one certificate and one intention list, and copies that
// each differ from them in exactly one field, sent as fresh values.
func internPayloads(t testing.TB) (cert *core.Certificate, in core.Intentions, variants map[string]gossip.Payload) {
	p := testParams(t)
	cert = &core.Certificate{P: p, K: 77, W: []core.WEntry{{Voter: 3, Value: 9}, {Voter: 61, Value: 140608}}, Color: 1, Owner: 3}
	in = core.Intentions{P: p, Votes: []core.Intent{{H: 1, Z: 0}, {H: 99, Z: 63}}}
	certWith := func(edit func(c *core.Certificate)) gossip.Payload {
		c := cert.Clone()
		edit(c)
		return c
	}
	intentsWith := func(edit func(v []core.Intent) []core.Intent) gossip.Payload {
		return core.Intentions{P: p, Votes: edit(slices.Clone(in.Votes))}
	}
	variants = map[string]gossip.Payload{
		"certificate K":       certWith(func(c *core.Certificate) { c.K++ }),
		"certificate voter":   certWith(func(c *core.Certificate) { c.W[1].Voter = 62 }),
		"certificate value":   certWith(func(c *core.Certificate) { c.W[0].Value = 10 }),
		"certificate count":   certWith(func(c *core.Certificate) { c.W = c.W[:1] }),
		"certificate color":   certWith(func(c *core.Certificate) { c.Color = 0 }),
		"certificate owner":   certWith(func(c *core.Certificate) { c.Owner = 4 }),
		"intentions H":        intentsWith(func(v []core.Intent) []core.Intent { v[1].H = 100; return v }),
		"intentions Z":        intentsWith(func(v []core.Intent) []core.Intent { v[0].Z = 1; return v }),
		"intentions count":    intentsWith(func(v []core.Intent) []core.Intent { return append(v, core.Intent{H: 5, Z: 6}) }),
		"intentions shortest": intentsWith(func(v []core.Intent) []core.Intent { return v[:1] }),
	}
	return cert, in, variants
}

// TestInternSharesRepeats pins the tentpole of the decoder's tables: an
// intention list or certificate whose bytes were decoded before on the
// connection comes back as that same payload, within a frame and across
// frames.
func TestInternSharesRepeats(t *testing.T) {
	cert, in, _ := internPayloads(t)
	var cache decodeCache
	got := mustDecodeOn(t, &cache,
		framed(t, cert, in, cert.Clone(), core.Intentions{P: in.P, Votes: slices.Clone(in.Votes)}),
		framed(t, in, cert))
	for i, want := range []gossip.Payload{cert, in, cert, in, in, cert} {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("payload %d decoded to %#v, want %#v", i, got[i], want)
		}
	}
	for _, pair := range [][2]int{{0, 2}, {1, 3}, {1, 4}, {0, 5}} {
		if !shared(got[pair[0]], got[pair[1]]) {
			t.Errorf("payloads %d and %d carry the same bytes but were decoded twice", pair[0], pair[1])
		}
	}
	if len(cache.certs) != 1 || len(cache.intents) != 1 {
		t.Fatalf("tables hold %d certificates and %d lists, want 1 and 1", len(cache.certs), len(cache.intents))
	}
}

// TestInternDistinguishesFields pins that the tables key on every byte: a
// payload differing from an interned one in a single field decodes to its
// own, correct value.
func TestInternDistinguishesFields(t *testing.T) {
	cert, in, variants := internPayloads(t)
	for name, v := range variants {
		var cache decodeCache
		got := mustDecodeOn(t, &cache, framed(t, cert, in), framed(t, v))
		if !reflect.DeepEqual(got[2], v) {
			t.Errorf("%s: decoded to %#v, want %#v", name, got[2], v)
		}
		if shared(got[0], got[2]) || shared(got[1], got[2]) {
			t.Errorf("%s: shares the payload of different bytes", name)
		}
	}
}

// TestInternParamsSwitch pins that a change of Params empties the tables:
// the same list bytes under other Params decode with the new P, and under the
// first Params again with that P, never a payload kept from the other.
func TestInternParamsSwitch(t *testing.T) {
	cert, in, _ := internPayloads(t)
	relaxed, err := cert.P.WithProtocol(core.Protocol{Variant: core.ProtocolRelaxed, MinVotes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cert2 := cert.Clone()
	cert2.P = relaxed
	in2 := core.Intentions{P: relaxed, Votes: in.Votes}
	var cache decodeCache
	got := mustDecodeOn(t, &cache, framed(t, cert, in), framed(t, cert2, in2), framed(t, cert, in2, in))
	for i, want := range []gossip.Payload{cert, in, cert2, in2, cert, in2, in} {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("payload %d decoded to %#v, want %#v", i, got[i], want)
		}
	}
	if shared(got[0], got[2]) || shared(got[1], got[3]) || shared(got[2], got[4]) {
		t.Fatal("a payload kept under one Params was returned under another")
	}
}

// TestInternCap pins the memory bound: decoding more distinct certificate
// bytes than internCap never leaves the tables holding more than internCap
// key bytes — they start over instead — and held stays the exact sum of the
// keys.
func TestInternCap(t *testing.T) {
	p := testParams(t)
	const entries = 40000 // 480 KB of W a certificate, under MaxFrame
	w := make([]core.WEntry, entries)
	var cache decodeCache
	restarts, prev := 0, 0
	for k := 0; k < 2*internCap/(entries*wentryWidth)+2; k++ {
		got := mustDecodeOn(t, &cache, framed(t, &core.Certificate{P: p, K: uint64(k), W: w}))
		if c := got[0].(*core.Certificate); c.K != uint64(k) || len(c.W) != entries {
			t.Fatalf("certificate %d decoded as K=%d with %d entries", k, c.K, len(c.W))
		}
		if cache.held > internCap {
			t.Fatalf("after certificate %d the tables hold %d key bytes, past internCap %d", k, cache.held, internCap)
		}
		sum := 0
		for key := range cache.certs {
			sum += len(key)
		}
		if sum != cache.held {
			t.Fatalf("held = %d, but the keys sum to %d", cache.held, sum)
		}
		if cache.held < prev {
			restarts++
		}
		prev = cache.held
	}
	if restarts < 2 {
		t.Fatalf("the tables started over %d times, want at least 2", restarts)
	}
}

// TestInternMalformedAfterValid pins that only clean decodes are kept: a
// certificate whose span overruns the frame, after a valid one with the same
// leading bytes, is a codec error and leaves the tables as they were.
func TestInternMalformedAfterValid(t *testing.T) {
	cert, _, _ := internPayloads(t)
	var cache decodeCache
	first := mustDecodeOn(t, &cache, framed(t, cert))[0]
	valid := framed(t, cert)
	// The certificate ends the body: drop Owner's last byte, or claim one
	// more W entry than the frame holds.
	truncated := valid[:len(valid)-1]
	count := len(valid) - 8 - 2*wentryWidth - 1
	if valid[count] != 2 {
		t.Fatalf("W count byte is %d, want 2", valid[count])
	}
	overrun := slices.Clone(valid)
	overrun[count] = 3
	for name, body := range map[string][]byte{"truncated": truncated, "overrun": overrun} {
		if _, _, _, err := decodeBatchOn(&cache, body, time.Time{}); !errors.Is(err, errCodec) {
			t.Fatalf("%s: err = %v, want a codec error", name, err)
		}
		if len(cache.certs) != 1 || cache.held != len(valid)-count+8 {
			t.Fatalf("%s: tables changed: %d certificates, %d key bytes", name, len(cache.certs), cache.held)
		}
	}
	if again := mustDecodeOn(t, &cache, valid)[0]; again != first {
		t.Fatal("the valid certificate is no longer interned")
	}
}

// TestInternPerConnection pins one table pair per connection: two serve
// loops decoding the same bytes at the same time each keep their own
// payloads, shared across their own frames only. Under the race detector it
// also witnesses that the tables need no lock.
func TestInternPerConnection(t *testing.T) {
	cert, in, _ := internPayloads(t)
	body := framed(t, cert, in)
	const conns, frames = 2, 50
	got := make([][]gossip.Payload, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var cache decodeCache
			for f := 0; f < frames; f++ {
				_, _, ms, err := decodeBatchOn(&cache, body, time.Time{})
				if err != nil {
					t.Error(err)
					return
				}
				for _, m := range ms {
					got[c] = append(got[c], m.Payload)
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for c := range got {
		for i := 2; i < len(got[c]); i++ {
			if !shared(got[c][i], got[c][i%2]) {
				t.Fatalf("connection %d: payload %d was decoded again", c, i)
			}
		}
	}
	if shared(got[0][0], got[1][0]) || shared(got[0][1], got[1][1]) {
		t.Fatal("two connections share a table")
	}
}
