package core

import (
	"fmt"
	"slices"
	"strings"
)

// Color is an element of the color space Σ, represented as an index in
// [0, NumColors). ColorBot is the failure outcome ⊥ ∉ Σ.
type Color int32

// ColorBot is the distinguished failure value ⊥.
const ColorBot Color = -1

// Valid reports whether the color is an element of Σ for the given palette
// size.
func (c Color) Valid(numColors int) bool { return c >= 0 && int(c) < numColors }

// Intent is one entry of a vote-intention list: "I will push value H to
// agent Z". A value of 0 is reserved to mean "no vote" (used for peers
// marked faulty).
type Intent struct {
	H uint64 // vote value in [1, m]
	Z int32  // target agent
}

// Intentions is the payload answering a Commitment-phase pull: the full
// declared list Hᵤ. Its wire size is q·(|h| + |z|) = O(log² n) bits, the
// protocol's largest regular message along with certificates.
//
// Like certificates, a published intention list is immutable: receivers
// (CommitmentLog.Record) alias the Votes slice instead of copying it, so a
// deviating agent that wants to show different declarations to different
// peers must build fresh slices — which is exactly what makes the first
// recorded declaration binding.
type Intentions struct {
	P     Params
	Votes []Intent
}

// SizeBits returns the wire size of the intention list.
func (in Intentions) SizeBits() int {
	return in.P.headerBits + len(in.Votes)*(in.P.voteBits+in.P.idBits)
}

// Vote is the payload pushed during the Voting phase: a single value in
// [1, m]. The voter identity is supplied by the secure channel, not the
// payload. Honest agents push *Vote pointers into per-agent preallocated
// buffers (interface-boxing a pointer is allocation-free); handlers accept
// both Vote and *Vote so hand-built payloads keep working.
type Vote struct {
	P     Params
	Value uint64
	// Index is the declared-slot index of this vote, in [0, q). It crosses
	// the wire only under ProtocolRetransmit, where receivers dedup
	// redelivered votes by (voter, Index); the other variants ignore it.
	Index int32
}

// SizeBits returns the wire size of one vote. Retransmit votes additionally
// carry their slot index, so redeliveries are distinguishable from a voter
// legitimately pushing the same value twice to one target.
func (v Vote) SizeBits() int {
	bits := v.P.headerBits + v.P.voteBits
	if v.P.Proto.Variant == ProtocolRetransmit {
		bits += v.P.indexBits
	}
	return bits
}

// IntentQuery asks a peer for its vote-intention list (Commitment phase).
type IntentQuery struct{ P Params }

// SizeBits returns the query size (a bare type tag).
func (IntentQuery) SizeBits() int { return 2 }

// CertQuery asks a peer for its current minimal certificate (Find-Min phase).
type CertQuery struct{ P Params }

// SizeBits returns the query size (a bare type tag).
func (CertQuery) SizeBits() int { return 2 }

// WEntry is one received vote inside a certificate: voter identity (stamped
// by the secure channel at receipt time) and value.
type WEntry struct {
	Voter int32
	Value uint64
}

// Certificate is CEᵤ = (kᵤ, Wᵤ, cᵤ, u): the claimed vote sum modulo m, the
// multiset of received votes backing it, the owner's color, and the owner's
// identity. Certificates travel as data — the Owner field is a claim, which
// is exactly why the Verification phase exists.
//
// Ownership: a certificate is immutable once published (handed to the engine
// as a payload or returned from a pull). Receivers adopt the pointer directly
// instead of deep-copying — the Find-Min hot path allocates nothing — so any
// agent, honest or deviating, that wants to send different data must build a
// new Certificate rather than mutate one it already published.
type Certificate struct {
	P     Params
	K     uint64
	W     []WEntry
	Color Color
	Owner int32
}

// SizeBits returns the certificate's wire size: O(log n) votes of O(log n)
// bits each in a good execution, hence O(log² n) overall.
func (c *Certificate) SizeBits() int {
	return c.P.headerBits + c.P.voteBits + len(c.W)*(c.P.idBits+c.P.voteBits) + c.P.colorBits + c.P.idBits
}

// Equal reports whether two certificates are identical, including the exact
// multiset of votes (order-insensitive). The Coherence phase fails the
// protocol on any inequality.
//
// The common cases — the very same (pointer-adopted) certificate, or two
// certificates listing the votes in the same order — are decided without
// allocating; only genuinely reordered vote lists fall back to sorting
// copies.
func (c *Certificate) Equal(o *Certificate) bool {
	if c == nil || o == nil {
		return c == o
	}
	if c == o {
		return true
	}
	if c.K != o.K || c.Color != o.Color || c.Owner != o.Owner || len(c.W) != len(o.W) {
		return false
	}
	sameOrder := true
	for i := range c.W {
		if c.W[i] != o.W[i] {
			sameOrder = false
			break
		}
	}
	if sameOrder {
		return true
	}
	a := append([]WEntry(nil), c.W...)
	b := append([]WEntry(nil), o.W...)
	sortWEntries(a)
	sortWEntries(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortWEntries orders entries by (voter, value). slices.SortFunc is
// non-reflective and allocation-free, unlike the sort.Slice call it replaced.
func sortWEntries(w []WEntry) {
	slices.SortFunc(w, func(a, b WEntry) int {
		if a.Voter != b.Voter {
			return int(a.Voter) - int(b.Voter)
		}
		switch {
		case a.Value < b.Value:
			return -1
		case a.Value > b.Value:
			return 1
		default:
			return 0
		}
	})
}

// Clone returns a deep copy. The honest adopt path no longer needs it —
// published certificates are immutable and adopted by pointer — but it
// remains for callers that build mutated variants (tests, deviations).
func (c *Certificate) Clone() *Certificate {
	if c == nil {
		return nil
	}
	cp := *c
	cp.W = append([]WEntry(nil), c.W...)
	return &cp
}

// Less orders certificates by K value with the owner ID as a deterministic
// tiebreaker (ties are a bad event — they violate Definition 2.2 — but the
// simulator must still behave deterministically when they occur).
func (c *Certificate) Less(o *Certificate) bool {
	if c.K != o.K {
		return c.K < o.K
	}
	return c.Owner < o.Owner
}

// String renders the certificate compactly for traces and errors.
func (c *Certificate) String() string {
	if c == nil {
		return "<nil cert>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "CE{k=%d owner=%d color=%d |W|=%d}", c.K, c.Owner, c.Color, len(c.W))
	return sb.String()
}

// SumVotesMod returns Σ values mod m, accumulating modularly so sums never
// overflow for m up to 2^62. Both addends stay below m, so the running sum
// needs at most one subtraction a step, and only a value of at least m is
// divided.
func SumVotesMod(w []WEntry, m uint64) uint64 {
	var sum uint64
	for _, e := range w {
		v := e.Value
		if v >= m {
			v %= m
		}
		if sum += v; sum >= m {
			sum -= m
		}
	}
	return sum
}
