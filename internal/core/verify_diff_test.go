package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// refVerifyScratch and refVerifyCertificate are a verbatim copy of the
// verifier as it stood before verification stopped needing per-agent scratch:
// it always sorts a copy of W into the caller's scratch. The rewrite walks an
// ordered W in place and sorts only an unordered one into a fresh copy;
// TestVerifyCertificateMatchesReference holds it to this reference's errors.
type refVerifyScratch struct {
	w   []WEntry
	exp []uint64
}

func refVerifyCertificate(p *Params, cert *Certificate, log *CommitmentLog, sc *refVerifyScratch) error {
	if cert == nil {
		return ErrNoCertificate
	}
	if cert.Owner < 0 || int(cert.Owner) >= p.N {
		return fmt.Errorf("verify: owner %d out of range", cert.Owner)
	}
	if !cert.Color.Valid(p.NumColors) {
		return fmt.Errorf("verify: color %d not in Σ", cert.Color)
	}
	if cert.K >= p.M {
		return fmt.Errorf("verify: k = %d outside [0, m)", cert.K)
	}
	for _, e := range cert.W {
		if e.Value == 0 || e.Value > p.M {
			return fmt.Errorf("verify: vote value %d from %d outside [1, m]", e.Value, e.Voter)
		}
		if e.Voter < 0 || int(e.Voter) >= p.N {
			return fmt.Errorf("verify: voter %d out of range", e.Voter)
		}
	}
	if got := SumVotesMod(cert.W, p.M); got != cert.K {
		return fmt.Errorf("verify: k = %d but ΣW mod m = %d", cert.K, got)
	}

	// Group W's values by voter: sort a copy by (voter, value) and walk the
	// runs. The sorted copy and the expectation buffer both come from the
	// caller's scratch, so a pooled verifier allocates nothing here.
	// ProtocolRelaxed tallies violating voters instead of rejecting on the
	// first one; the count does not depend on the order voters are visited in.
	retarget := p.Proto.Variant == ProtocolLiveRetarget
	relaxed := p.Proto.Variant == ProtocolRelaxed
	violations := 0
	w := append(sc.w[:0], cert.W...)
	sc.w = w
	sortWEntries(w)
	for i := 0; i < len(w); {
		voter := w[i].Voter
		j := i
		for j < len(w) && w[j].Voter == voter {
			j++
		}
		if intents, known := log.lookup(voter); known {
			// Run values are ascending (sortWEntries orders by value within a
			// voter), matching the sorted expectation list.
			var ok bool
			if retarget {
				sc.exp = appendValues(sc.exp[:0], intents)
				ok = runSubsetSorted(w[i:j], sc.exp)
			} else {
				sc.exp = appendVotesFor(sc.exp[:0], intents, cert.Owner)
				ok = runEqualsSorted(w[i:j], sc.exp)
			}
			if !ok {
				if !relaxed {
					return ErrVoteMismatch
				}
				violations++
			}
		}
		i = j
	}
	// Voters the verifier knows about but that are absent from W must have
	// committed no votes for the owner. Live-retarget skips this direction:
	// with advisory targets, an absent vote may have landed at another peer.
	if !retarget {
		for i, voter := range log.voters {
			// A voter present in W was already checked above.
			if commitsTo(log.declared[i], cert.Owner) && !hasVoter(w, voter) {
				if !relaxed {
					return ErrMissingVotes
				}
				violations++
			}
		}
	}
	if relaxed && violations > p.Q-p.Proto.MinVotes {
		return ErrTooManyViolations
	}
	return nil
}

// diffCase is one random certificate against one random log. The values
// come from a four-element alphabet so that duplicate votes, and votes that
// agree with a declaration by coincidence, are common.
func diffCase(r *rng.Source, p Params) (*Certificate, *CommitmentLog) {
	owner := int32(r.Intn(p.N))
	value := func() uint64 { return uint64(r.Intn(4)) + 1 }
	target := func() int32 {
		if r.Intn(2) == 0 {
			return owner
		}
		return int32(r.Intn(p.N))
	}
	log := NewCommitmentLog()
	var w []WEntry
	for voter := int32(0); int(voter) < p.N; voter++ {
		switch r.Intn(4) {
		case 0: // unknown to the verifier; may still appear in W
			if r.Intn(3) == 0 {
				w = append(w, WEntry{Voter: voter, Value: value()})
			}
		case 1: // marked faulty; a vote from it in W mismatches
			log.MarkFaulty(voter)
			if r.Intn(16) == 0 {
				w = append(w, WEntry{Voter: voter, Value: value()})
			}
		default: // declared; W carries its votes for the owner, mostly intact
			intents := make([]Intent, 1+r.Intn(p.Q))
			for i := range intents {
				intents[i] = Intent{H: value(), Z: target()}
			}
			log.Record(voter, intents)
			for _, in := range intents {
				if in.Z == owner && r.Intn(16) != 0 {
					w = append(w, WEntry{Voter: voter, Value: in.H})
				}
			}
		}
	}
	// Forgeries on top of the mostly consistent W.
	for range r.Intn(3) {
		if len(w) == 0 {
			break
		}
		i := r.Intn(len(w))
		switch r.Intn(4) {
		case 0: // altered value
			w[i].Value = value()
		case 1: // duplicate voter entry
			w = append(w, w[i])
		case 2: // dropped vote
			w = slices.Delete(w, i, i+1)
		case 3: // retargeted: a value the voter declared for someone else
			w = append(w, WEntry{Voter: w[i].Voter, Value: value()})
		}
	}
	if len(w) > 0 && r.Intn(10) == 0 { // out-of-range value or voter
		i := r.Intn(len(w))
		switch r.Intn(3) {
		case 0:
			w[i].Value = 0
		case 1:
			w[i].Value = p.M + 1
		default:
			w[i].Voter = int32(p.N)
		}
	}
	if r.Intn(2) == 0 { // an honest owner's order
		sortWEntries(w)
	} else {
		for i := len(w) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			w[i], w[j] = w[j], w[i]
		}
	}
	cert := &Certificate{P: p, K: SumVotesMod(w, p.M), W: w, Color: Color(r.Intn(p.NumColors)), Owner: owner}
	if r.Intn(20) == 0 {
		cert.K = (cert.K + 1) % p.M
	}
	return cert, log
}

// TestVerifyCertificateMatchesReference is the verifier's differential test:
// on random certificates against random logs, under all four variants, the
// in-place verifier returns exactly the reference's error — the same
// sentinel, or a formatted error with the same text.
func TestVerifyCertificateMatchesReference(t *testing.T) {
	base := MustParams(16, 3, 1) // q = 4
	variants := []Params{
		base,
		withVariant(t, base, Protocol{Variant: ProtocolRetransmit}),
		withVariant(t, base, Protocol{Variant: ProtocolLiveRetarget}),
		withVariant(t, base, Protocol{Variant: ProtocolRelaxed, MinVotes: base.Q - 1}),
		withVariant(t, base, Protocol{Variant: ProtocolRelaxed, MinVotes: 1}),
	}
	sentinels := []error{nil, ErrVoteMismatch, ErrMissingVotes, ErrTooManyViolations}
	r := rng.New(38)
	var sc refVerifyScratch
	type cell struct {
		variant ProtocolVariant
		ordered bool
		err     error // a sentinel, or errFormatted
	}
	errFormatted := fmt.Errorf("formatted")
	type side struct {
		variant ProtocolVariant
		ordered bool
	}
	seen := map[cell]int{}
	cases := map[side]int{}
	for trial := 0; trial < 20000; trial++ {
		p := variants[trial%len(variants)]
		cert, log := diffCase(r, p)
		ordered := slices.IsSortedFunc(cert.W, cmpWEntries)
		w := slices.Clone(cert.W)
		want := refVerifyCertificate(&p, cert, log, &sc)
		got := verifyCertificate(&p, cert, log)
		if !slices.Equal(cert.W, w) {
			t.Fatalf("trial %d: verification reordered the published W", trial)
		}
		switch {
		case (got == nil) != (want == nil),
			got != nil && got.Error() != want.Error(),
			slices.Contains(sentinels, want) && got != want:
			t.Fatalf("trial %d (%s, ordered W %v): got %v, reference %v\ncert %+v", trial, p.Proto.Variant, ordered, got, want, cert)
		}
		c := cell{p.Proto.Variant, ordered, want}
		if !slices.Contains(sentinels, want) {
			c.err = errFormatted
		}
		seen[c]++
		cases[side{p.Proto.Variant, ordered}]++
	}
	// Every variant must see both orders accepted and rejected, or the
	// generator pins nothing there.
	for s, n := range cases {
		if accepted := seen[cell{s.variant, s.ordered, nil}]; accepted == 0 || accepted == n {
			t.Errorf("%s, ordered W %v: %d of %d cases accepted; want both verdicts", s.variant, s.ordered, accepted, n)
		}
	}
	if len(cases) != 2*4 {
		t.Errorf("cases cover %d (variant, order) pairs, want 8", len(cases))
	}
	for _, c := range []cell{
		{base.Proto.Variant, true, ErrVoteMismatch}, {base.Proto.Variant, false, ErrMissingVotes},
		{ProtocolRetransmit, true, ErrMissingVotes}, {ProtocolLiveRetarget, false, ErrVoteMismatch},
		{ProtocolRelaxed, true, ErrTooManyViolations}, {ProtocolRelaxed, false, ErrTooManyViolations},
		{base.Proto.Variant, false, errFormatted},
	} {
		if seen[c] == 0 {
			t.Errorf("no case reached %+v", c)
		}
	}
}

// TestVerifyHonestCertificateAllocFree pins what publishing W in order buys:
// after a pooled run, every honest agent's own certificate lists W in
// (voter, value) order, and verifying the run's winning certificate against
// an agent's log — the Verification step every agent runs — walks it in
// place and allocates nothing, under each variant's verification rule.
func TestVerifyHonestCertificateAllocFree(t *testing.T) {
	base := MustParams(64, 2, DefaultGamma)
	for _, p := range []Params{
		base,
		withVariant(t, base, Protocol{Variant: ProtocolLiveRetarget}),
		withVariant(t, base, Protocol{Variant: ProtocolRelaxed, MinVotes: base.Q - 2}),
	} {
		res, err := Run(RunConfig{Params: p, Colors: UniformColors(p.N, 2), Seed: 5, Workers: 1, Pool: &RunPool{}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome.Failed {
			t.Fatalf("%s: fault-free run failed", p.Proto.Variant)
		}
		for _, a := range res.Agents {
			if own := a.EnsureCertificate(); !slices.IsSortedFunc(own.W, cmpWEntries) {
				t.Fatalf("%s: agent %d published W out of (voter, value) order", p.Proto.Variant, a.ID())
			}
		}
		a := res.Agents[0]
		cert := a.MinCertificate()
		if allocs := testing.AllocsPerRun(100, func() {
			if err := verifyCertificate(&a.p, cert, a.log); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: verifying an honest certificate allocates %v objects, want 0", p.Proto.Variant, allocs)
		}
	}
}
