package netconduit

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/runtime"
)

// encodeOne encodes one message as a batch frame of one and returns the
// frame body after the frame-type byte — what the server's decode sees.
func encodeOne(t testing.TB, seq uint64, to int, m runtime.Message, epoch time.Time) []byte {
	t.Helper()
	return encodeBatch(t, seq, []int{to}, []runtime.Message{m}, epoch)
}

// decodeBatch is the server's decode of a batch frame body (the bytes after
// the frame-type byte): the header, count message bodies, and the
// trailing-byte check.
func decodeBatch(body []byte, epoch time.Time) (seq uint64, tos []int, ms []runtime.Message, err error) {
	r := &reader{b: body}
	seq, count, err := readBatchHeader(r)
	if err != nil {
		return 0, nil, nil, err
	}
	var cache paramsCache
	for i := 0; i < count; i++ {
		to, m, err := readMessageBody(r, epoch, &cache)
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
	for i, m := range ms {
		var err error
		if bodies, err = appendMessageBody(bodies, tos[i], m, epoch); err != nil {
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

// TestCodecParamsCache pins the per-connection Params memoization: the
// second decode of the same parameter block must return the cached value.
func TestCodecParamsCache(t *testing.T) {
	p := testParams(t)
	b, err := appendParams(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	var cache paramsCache
	first, err := readParams(&reader{b: b}, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if first != p {
		t.Fatalf("decoded params %+v != original %+v", first, p)
	}
	if !cache.ok {
		t.Fatal("cache not primed")
	}
	second, err := readParams(&reader{b: b}, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if second != p {
		t.Fatalf("cached params %+v != original %+v", second, p)
	}
}

// TestCodecAckRoundTrip covers both polarities of every bit of a batch ack,
// across a byte boundary.
func TestCodecAckRoundTrip(t *testing.T) {
	const count = 11
	for _, ok := range []bool{true, false} {
		sent := make([]byte, (count+7)/8)
		for i := 0; i < count; i++ {
			if ok == (i%3 == 0) {
				bitmapSet(sent, i)
			}
		}
		frame := appendBatchAckFrame(nil, 42, sent, count)
		seq, bits, n, err := decodeBatchAck(frame[5:])
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

// TestCodecRejectsMalformed walks the garbage taxonomy: every malformed body
// must come back as a codec error, never a panic or a silent success.
func TestCodecRejectsMalformed(t *testing.T) {
	for name, b := range malformedBatchBodies(t) {
		if _, _, _, err := decodeOne(b, time.Now()); !errors.Is(err, errCodec) {
			t.Errorf("%s: err = %v, want a codec error", name, err)
		}
	}
	acks := map[string][]byte{
		"truncated ack":       {0x01},
		"ack of zero":         {0x01, 0x00},
		"ack bitmap short":    {0x01, 0x09, 0xFF},
		"ack bitmap too long": {0x01, 0x01, 0x01, 0x00},
	}
	for name, b := range acks {
		if _, _, _, err := decodeBatchAck(b); !errors.Is(err, errCodec) {
			t.Errorf("%s: err = %v, want a codec error", name, err)
		}
	}
}

// malformedBatchBodies is the garbage taxonomy of batch frame bodies, each
// derived from one valid single-vote body.
func malformedBatchBodies(t testing.TB) map[string][]byte {
	p := testParams(t)
	body := encodeOne(t, 1, 2, runtime.Message{
		Kind: runtime.MsgPush, Round: 3, From: 1,
		Payload: core.Vote{P: p, Value: 5},
	}, time.Now())
	return map[string][]byte{
		"empty":            {},
		"bad version":      append([]byte{99}, body[1:]...),
		"zero count":       {batchVersion, 1, 0},
		"truncated header": body[:4],
		"truncated params": body[:len(body)-6],
		"trailing bytes":   append(append([]byte{}, body...), 0xAA),
		// The 8-byte header (version, seq, count, kind, flags, round, from, to —
		// all single-byte varints here) followed by a tag outside the payload
		// set.
		"bad payload tag": append(append([]byte{}, body[:8]...), 0x7F),
	}
}

// TestCodecRejectsHugeCounts pins the allocation guard: a garbage list count
// larger than the frame's remaining bytes is rejected before any allocation
// of that size.
func TestCodecRejectsHugeCounts(t *testing.T) {
	if _, _, _, err := decodeOne(hugeCountBody(t), time.Now()); !errors.Is(err, errCodec) {
		t.Fatalf("err = %v, want a codec error", err)
	}
}

// hugeCountBody is a one-message batch body whose intentions payload claims
// 2^56 votes in a frame of a few dozen bytes.
func hugeCountBody(t testing.TB) []byte {
	p := testParams(t)
	// Hand-build an intentions payload claiming 2^40 votes in a tiny frame.
	pb, err := appendParams([]byte{batchVersion, 1 /*seq*/, 1 /*count*/, byte(runtime.MsgReply), 0 /*flags*/, 1, 1, 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Splice the payload tag in front of the params block we appended.
	msg := append(pb[:8], append([]byte{payIntentions}, pb[8:]...)...)
	return append(msg, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // uvarint 2^56
}

// TestReadFrameBounds pins the frame-length guard: zero and oversized
// lengths are connection-fatal codec errors, and a truncated body surfaces
// as an I/O error — all without allocating MaxFrame-scale buffers for
// garbage.
func TestReadFrameBounds(t *testing.T) {
	var buf []byte
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0}), &buf); !errors.Is(err, errCodec) {
		t.Errorf("zero length: err = %v", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), &buf); !errors.Is(err, errCodec) {
		t.Errorf("oversized length: err = %v", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 9, 1, 2}), &buf); err == nil {
		t.Error("truncated body: no error")
	}
}

// FuzzReadBatch feeds arbitrary bytes to the batch-frame parser the serve loop
// runs on every inbound frame: readBatchHeader, count × readMessageBody, and
// the trailing-byte check. It must never panic; what it rejects must be a
// codec error; and what it accepts must round-trip — re-encoding the decoded
// messages gives a frame that decodes to the same sequence number,
// destinations and messages, byte for byte once re-encoded. Seeds: the
// malformed-frame and huge-count tables, and one valid frame carrying every
// payload shape.
func FuzzReadBatch(f *testing.F) {
	for _, b := range malformedBatchBodies(f) {
		f.Add(b)
	}
	f.Add(hugeCountBody(f))
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
		again := encodeBatch(t, seq, tos, ms, epoch)
		seq2, tos2, ms2, err := decodeBatch(again, epoch)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if seq2 != seq || !reflect.DeepEqual(tos2, tos) {
			t.Fatalf("header changed across a round trip: seq %d -> %d, to %v -> %v", seq, seq2, tos, tos2)
		}
		if !bytes.Equal(encodeBatch(t, seq2, tos2, ms2, epoch), again) {
			t.Fatalf("messages changed across a round trip:\nfirst  %+v\nsecond %+v", ms, ms2)
		}
	})
}
