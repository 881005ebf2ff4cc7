package netconduit

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/runtime"
)

// BenchmarkSocketConduitRound measures one lockstep round when every
// delivery crosses a Unix-domain loopback socket, coalesced into batch
// frames with bitmap acks — a handful of writes per round instead of a
// synchronous write→ack round trip per message. Read next to
// BenchmarkRuntimeRound (same scenario through the in-process channel
// conduit) it prices the socket rung of the transport ladder. Gated at
// n=1024 in BENCH_BASELINE.json with a wide ns threshold (kernel-timing-
// dominated) and a tight alloc budget guarding the pooled encode/ack path.
func BenchmarkSocketConduitRound(b *testing.B) {
	for _, n := range []int{128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p, err := core.NewParams(n, 2, 3.0)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var rt *runtime.Runtime
			var setup *core.RunSetup
			rebuild := func() {
				if rt != nil {
					rt.Shutdown()
				}
				setup, err = core.PrepareRun(core.RunConfig{
					Params: p,
					Colors: core.UniformColors(n, 2),
					Seed:   1,
				})
				if err != nil {
					b.Fatal(err)
				}
				c, err := Listen("unix")
				if err != nil {
					b.Fatal(err)
				}
				rt = runtime.New(runtime.Config{
					Topology: setup.Net,
					Faulty:   setup.Faulty,
					Faults:   setup.Faults,
					Counters: setup.Counters,
					Trace:    setup.Trace,
					Drop:     setup.Drop,
					DropRand: setup.DropRand,
					Conduit:  c,
				}, setup.Agents)
			}
			rebuild()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rounds, err := rt.Run(ctx, 1)
				if err != nil {
					b.Fatal(err)
				}
				if rounds == 0 || rt.Round() >= setup.MaxRounds {
					b.StopTimer()
					rebuild()
					b.StartTimer()
				}
			}
			b.StopTimer()
			rt.Shutdown()
		})
	}
}

// BenchmarkBatchCodec prices the frame codec on its own, apart from sockets,
// hosts and the kernel: one op encodes a full n = 1024 wave of one payload
// shape into batch frames exactly as a socketBatch stages them (sealed at
// defaultBatchBytes, Params memory reset per frame) and decodes every frame
// as the serve loop does, on fresh decoder state each op — a new connection —
// so a list is decoded, not found in the tables of the op before. Per message
// it reports the time (ns/msg), the heap bytes and objects allocated
// (bytes/msg, allocs/msg — a vote, and a list the connection has not decoded
// before, allocates its value) and the encoded size (wire-bytes/msg). The
// shapes are the protocol's traffic: intention-list replies, votes,
// certificate replies (all distinct), one certificate replied by every node —
// a Find-Min wave, which prices the interned path — and queries. Ungated.
func BenchmarkBatchCodec(b *testing.B) {
	const n = 1024
	p, err := core.NewParams(n, 2, 3.0)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	wave := func(payload func(i int) gossip.Payload) []runtime.Message {
		ms := make([]runtime.Message, n)
		for i := range ms {
			ms[i] = runtime.Message{Kind: runtime.MsgReply, Round: 40, From: i, Payload: payload(i)}
		}
		return ms
	}
	shapes := []struct {
		name string
		ms   []runtime.Message
	}{
		{"intentions", wave(func(int) gossip.Payload {
			votes := make([]core.Intent, p.Q)
			for k := range votes {
				votes[k] = core.Intent{H: 1 + r.Uint64n(p.M), Z: int32(r.Intn(n))}
			}
			return core.Intentions{P: p, Votes: votes}
		})},
		{"votes", wave(func(int) gossip.Payload {
			return &core.Vote{P: p, Value: 1 + r.Uint64n(p.M), Index: int32(r.Intn(p.Q))}
		})},
		{"certificates", wave(func(i int) gossip.Payload {
			w := make([]core.WEntry, p.Q)
			for k := range w {
				w[k] = core.WEntry{Voter: int32(r.Intn(n)), Value: 1 + r.Uint64n(p.M)}
			}
			return &core.Certificate{P: p, K: r.Uint64n(p.M), W: w, Color: core.Color(i % 2), Owner: int32(i)}
		})},
		{"certificates-repeat", wave(func() func(int) gossip.Payload {
			w := make([]core.WEntry, p.Q)
			for k := range w {
				w[k] = core.WEntry{Voter: int32(r.Intn(n)), Value: 1 + r.Uint64n(p.M)}
			}
			cert := &core.Certificate{P: p, K: r.Uint64n(p.M), W: w, Color: 1, Owner: 7}
			return func(int) gossip.Payload { return cert }
		}())},
		{"queries", wave(func(i int) gossip.Payload {
			if i%2 == 0 {
				return core.IntentQuery{P: p}
			}
			return core.CertQuery{P: p}
		})},
	}
	epoch := time.Now()
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			var stage, frame []byte
			var memo paramsMemo
			var cache decodeCache
			var sink gossip.Payload
			count, wire := 0, 0
			// seal frames the staged bodies and decodes the frame.
			seal := func() {
				f, err := appendBatchFrame(frame[:0], 1, count, stage)
				if err != nil {
					b.Fatal(err)
				}
				frame, wire = f, wire+len(f)
				stage, count, memo = stage[:0], 0, paramsMemo{}
				r := &reader{b: f[5:]}
				_, k, err := readBatchHeader(r, &cache)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < k; j++ {
					_, m, err := readMessageBody(r, epoch, &cache)
					if err != nil {
						b.Fatal(err)
					}
					sink = m.Payload
				}
			}
			run := func() {
				wire, cache = 0, decodeCache{}
				for j, m := range sh.ms {
					var err error
					if stage, err = appendMessageBody(stage, j, m, epoch, &memo); err != nil {
						b.Fatal(err)
					}
					if count++; len(stage) >= defaultBatchBytes {
						seal()
					}
				}
				if count > 0 {
					seal()
				}
			}
			// One untimed pass sizes every buffer.
			run()
			var before, after stdruntime.MemStats
			stdruntime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.StopTimer()
			stdruntime.ReadMemStats(&after)
			_ = sink
			msgs := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/msgs, "bytes/msg")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
			b.ReportMetric(float64(wire)/n, "wire-bytes/msg")
		})
	}
}
