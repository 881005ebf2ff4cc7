package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestColorValid(t *testing.T) {
	if ColorBot.Valid(5) {
		t.Fatal("⊥ reported valid")
	}
	if !Color(0).Valid(1) || !Color(4).Valid(5) {
		t.Fatal("valid colors rejected")
	}
	if Color(5).Valid(5) {
		t.Fatal("out-of-palette color accepted")
	}
}

func TestCertificateEqualOrderInsensitive(t *testing.T) {
	p := MustParams(8, 2, 1)
	a := &Certificate{P: p, K: 5, Color: 1, Owner: 3,
		W: []WEntry{{1, 10}, {2, 20}, {1, 30}}}
	b := &Certificate{P: p, K: 5, Color: 1, Owner: 3,
		W: []WEntry{{2, 20}, {1, 30}, {1, 10}}}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("permuted W broke equality")
	}
}

func TestCertificateEqualDetectsDifferences(t *testing.T) {
	p := MustParams(8, 2, 1)
	base := func() *Certificate {
		return &Certificate{P: p, K: 5, Color: 1, Owner: 3, W: []WEntry{{1, 10}, {2, 20}}}
	}
	a := base()
	for name, mutate := range map[string]func(c *Certificate){
		"k":          func(c *Certificate) { c.K = 6 },
		"color":      func(c *Certificate) { c.Color = 0 },
		"owner":      func(c *Certificate) { c.Owner = 4 },
		"vote value": func(c *Certificate) { c.W[0].Value = 11 },
		"voter":      func(c *Certificate) { c.W[0].Voter = 7 },
		"extra vote": func(c *Certificate) { c.W = append(c.W, WEntry{3, 30}) },
		"fewer":      func(c *Certificate) { c.W = c.W[:1] },
	} {
		m := base()
		mutate(m)
		if a.Equal(m) {
			t.Errorf("mutation %q not detected", name)
		}
	}
}

func TestCertificateEqualNil(t *testing.T) {
	var nilCert *Certificate
	p := MustParams(8, 2, 1)
	c := &Certificate{P: p}
	if nilCert.Equal(c) || c.Equal(nilCert) {
		t.Fatal("nil compared equal to non-nil")
	}
	if !nilCert.Equal(nil) {
		t.Fatal("nil != nil")
	}
}

func TestCertificateCloneIsDeep(t *testing.T) {
	p := MustParams(8, 2, 1)
	orig := &Certificate{P: p, K: 1, W: []WEntry{{1, 10}}}
	cp := orig.Clone()
	cp.W[0].Value = 99
	cp.K = 2
	if orig.W[0].Value != 10 || orig.K != 1 {
		t.Fatal("Clone aliases the original")
	}
	if (*Certificate)(nil).Clone() != nil {
		t.Fatal("Clone of nil not nil")
	}
}

func TestCertificateLess(t *testing.T) {
	p := MustParams(8, 2, 1)
	a := &Certificate{P: p, K: 3, Owner: 5}
	b := &Certificate{P: p, K: 4, Owner: 1}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("K ordering wrong")
	}
	c := &Certificate{P: p, K: 3, Owner: 2}
	if !c.Less(a) || a.Less(c) {
		t.Fatal("owner tiebreak wrong")
	}
	if a.Less(a) {
		t.Fatal("Less not irreflexive")
	}
}

func TestCertificateString(t *testing.T) {
	if (*Certificate)(nil).String() == "" {
		t.Fatal("nil String empty")
	}
	p := MustParams(8, 2, 1)
	c := &Certificate{P: p, K: 7, Owner: 2, Color: 1, W: []WEntry{{0, 1}}}
	if s := c.String(); s == "" {
		t.Fatal("String empty")
	}
}

func TestSumVotesModBasic(t *testing.T) {
	if got := SumVotesMod(nil, 100); got != 0 {
		t.Fatalf("empty sum = %d", got)
	}
	w := []WEntry{{0, 30}, {1, 50}, {2, 40}}
	if got := SumVotesMod(w, 100); got != 20 {
		t.Fatalf("sum mod 100 = %d, want 20", got)
	}
}

func TestSumVotesModNoOverflow(t *testing.T) {
	// Values near m with m near 2^60: a naive sum of 1000 entries would
	// overflow uint64; modular accumulation must not.
	m := uint64(1) << 60
	w := make([]WEntry, 1000)
	for i := range w {
		w[i] = WEntry{Voter: int32(i), Value: m - 1}
	}
	want := (1000 * (m - 1)) % m // computed as: (-1000) mod m
	want = m - 1000%m
	if got := SumVotesMod(w, m); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestSumVotesModProperty(t *testing.T) {
	// Splitting a vote multiset in two and summing mod m commutes.
	p := MustParams(64, 2, 1)
	r := rng.New(5)
	f := func(cut uint8) bool {
		w := make([]WEntry, 50)
		for i := range w {
			w[i] = WEntry{Voter: int32(i), Value: r.Uint64n(p.M) + 1}
		}
		c := int(cut) % len(w)
		total := SumVotesMod(w, p.M)
		split := (SumVotesMod(w[:c], p.M) + SumVotesMod(w[c:], p.M)) % p.M
		return total == split
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadSizesPositive(t *testing.T) {
	p := MustParams(16, 2, 1)
	payloads := []interface{ SizeBits() int }{
		Intentions{P: p, Votes: make([]Intent, p.Q)},
		Vote{P: p, Value: 1},
		IntentQuery{P: p},
		CertQuery{P: p},
		&Certificate{P: p},
	}
	for i, pl := range payloads {
		if pl.SizeBits() <= 0 {
			t.Errorf("payload %d has non-positive size", i)
		}
	}
}

// TestSumVotesModMatchesDivision pins SumVotesMod's compare-and-subtract
// accumulation to the two-divisions-per-entry formula it replaced, for
// random values and the edge values 0, 1, m−1, m, m+1 and 2⁶⁴−1 at every
// modulus up to 2⁶² the protocol can use.
func TestSumVotesModMatchesDivision(t *testing.T) {
	divide := func(w []WEntry, m uint64) uint64 {
		var sum uint64
		for _, e := range w {
			sum = (sum + e.Value%m) % m
		}
		return sum
	}
	r := rng.New(11)
	for _, m := range []uint64{2, 1 << 60, 1 << 62} {
		edges := []uint64{0, 1, m - 1, m, m + 1, math.MaxUint64}
		var w []WEntry
		for _, a := range edges {
			for _, b := range edges {
				w = append(w[:0], WEntry{Value: a}, WEntry{Value: b}, WEntry{Value: a})
				if got, want := SumVotesMod(w, m), divide(w, m); got != want {
					t.Fatalf("m=%d, values %d, %d, %d: sum %d, want %d", m, a, b, a, got, want)
				}
			}
		}
		for trial := 0; trial < 200; trial++ {
			w = w[:0]
			for i := r.Intn(64); i > 0; i-- {
				v := r.Uint64()
				switch r.Intn(4) {
				case 0:
					v = edges[r.Intn(len(edges))]
				case 1:
					v %= 2 * m
				}
				w = append(w, WEntry{Voter: int32(i), Value: v})
			}
			if got, want := SumVotesMod(w, m), divide(w, m); got != want {
				t.Fatalf("m=%d, W %v: sum %d, want %d", m, w, got, want)
			}
		}
	}
}
