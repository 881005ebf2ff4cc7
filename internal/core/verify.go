package core

import (
	"errors"
	"fmt"
	"slices"
)

// CommitmentLog is an agent's Lᵤ: the vote intentions it collected during
// the Commitment phase, plus the set of peers it marked faulty for not
// answering (whose votes all count as 0 per the protocol).
//
// The first declaration received from a peer is binding — subsequent
// declarations (which only a deviating peer would vary) are ignored, mirroring
// the h* definition in the proof of Theorem 7.
//
// An agent pulls once per Commitment round, so a log never holds more than q
// verdicts (≈ 30 at n = 1024: two cache lines of voter ids). That bound is
// why the log is three flat vectors searched linearly rather than maps: at
// this size a scan beats hashing on every lookup, and Reset is a truncation.
// Everything that iterates the log walks it in arrival order; no result may
// depend on that order (TestVerifyCertificateOrderIndependent).
type CommitmentLog struct {
	voters   []int32    // peers with a binding declaration, in arrival order
	declared [][]Intent // declared[i] is the list voters[i] declared
	faulty   []int32    // peers marked faulty, in arrival order; disjoint from voters
}

// NewCommitmentLog returns an empty log.
func NewCommitmentLog() *CommitmentLog { return &CommitmentLog{} }

// reserve sizes an empty log's vectors for the q verdicts one run can produce,
// so a new agent's log grows once, at construction, not by doubling mid-run.
func (l *CommitmentLog) reserve(q int) {
	if cap(l.voters) < q {
		l.voters = make([]int32, 0, q)
		l.declared = make([][]Intent, 0, q)
		l.faulty = make([]int32, 0, q)
	}
}

// Reset empties the log in place, keeping the vectors' capacity so pooled
// agents reuse it across runs, and dropping the recorded intention lists so
// the log does not keep the previous run's memory reachable.
func (l *CommitmentLog) Reset() {
	clear(l.declared)
	l.voters = l.voters[:0]
	l.declared = l.declared[:0]
	l.faulty = l.faulty[:0]
}

// Record stores voter's declared intentions if this is the first information
// about voter; it reports whether the declaration was recorded.
//
// The log aliases intents rather than copying: published intention lists are
// immutable (see Intentions), and binding means the first slice recorded
// stays the slice consulted — a deviator varying its declarations must hand
// out distinct slices, which the log then distinguishes per recorder.
func (l *CommitmentLog) Record(voter int32, intents []Intent) bool {
	if l.Known(voter) {
		return false
	}
	l.voters = append(l.voters, voter)
	l.declared = append(l.declared, intents)
	return true
}

// MarkFaulty records that voter failed to answer a pull; all its votes are
// treated as 0 from now on. A voter already recorded stays recorded.
func (l *CommitmentLog) MarkFaulty(voter int32) {
	if l.Known(voter) {
		return
	}
	l.faulty = append(l.faulty, voter)
}

// lookup returns voter's binding intention list and whether the log holds
// any verdict about voter. A faulty-marked voter is known and committed to
// nothing, so its list is nil.
func (l *CommitmentLog) lookup(voter int32) ([]Intent, bool) {
	if intents, ok := l.Declared(voter); ok {
		return intents, true
	}
	return nil, l.Faulty(voter)
}

// Known reports whether the log holds any verdict (declaration or faulty
// mark) about voter.
func (l *CommitmentLog) Known(voter int32) bool {
	_, known := l.lookup(voter)
	return known
}

// Faulty reports whether voter was marked faulty.
func (l *CommitmentLog) Faulty(voter int32) bool { return slices.Contains(l.faulty, voter) }

// Declared returns voter's recorded intention list and whether one exists.
func (l *CommitmentLog) Declared(voter int32) ([]Intent, bool) {
	if i := slices.Index(l.voters, voter); i >= 0 {
		return l.declared[i], true
	}
	return nil, false
}

// Size returns the number of peers the log has information about.
func (l *CommitmentLog) Size() int { return len(l.voters) + len(l.faulty) }

// ExpectedVotesFor returns the multiset (sorted) of values voter committed
// to push to target. A faulty-marked voter commits to nothing.
func (l *CommitmentLog) ExpectedVotesFor(voter, target int32) []uint64 {
	intents, _ := l.Declared(voter)
	return appendVotesFor(nil, intents, target)
}

// appendVotesFor appends the values intents commits to push to target to buf
// (sorted), reusing buf's capacity — the allocation-free form
// verifyCertificate runs in a loop.
func appendVotesFor(buf []uint64, intents []Intent, target int32) []uint64 {
	start := len(buf)
	for _, in := range intents {
		if in.Z == target {
			buf = append(buf, in.H)
		}
	}
	slices.Sort(buf[start:])
	return buf
}

// appendValues appends the sorted multiset of every value in intents,
// regardless of target — the expectation live-retarget verification checks
// against, where targets are advisory but values stay binding.
func appendValues(buf []uint64, intents []Intent) []uint64 {
	start := len(buf)
	for _, in := range intents {
		buf = append(buf, in.H)
	}
	slices.Sort(buf[start:])
	return buf
}

// commitsTo reports whether intents holds a vote for target.
func commitsTo(intents []Intent, target int32) bool {
	for _, in := range intents {
		if in.Z == target {
			return true
		}
	}
	return false
}

// The common rejection reasons are pre-declared sentinels rather than
// formatted errors: under message loss, mid-voting crashes, or edge churn,
// *every* verifier in a failing run takes one of these paths, so a formatted
// error per rejection is ~n allocations per failed trial — enough to dominate
// the churny-mode batch budgets. The structural rejections further down stay
// formatted: they only fire on malformed certificates from deviating agents,
// never in honest failing runs, and there the detail is worth the allocation.
var (
	// ErrNoCertificate rejects a verifier that never adopted any certificate
	// (possible when faults or churn starve the Find-Min phase).
	ErrNoCertificate = errors.New("verify: no certificate")
	// ErrVoteMismatch rejects a W whose votes from some known voter differ
	// from that voter's binding declaration (altered or extra votes — or
	// votes missing from a voter W still mentions).
	ErrVoteMismatch = errors.New("verify: votes in W differ from the voter's binding declaration")
	// ErrMissingVotes rejects a W that omits every vote of a voter the
	// verifier holds a nonempty declaration from — the direction that stops
	// a cheating winner from dropping votes to lower its k, and the one
	// unfulfilled declarations (lost messages, dead edges, mid-voting
	// crashes) trigger in honest runs.
	ErrMissingVotes = errors.New("verify: W omits a voter's committed votes")
	// ErrTooManyViolations rejects a relaxed-verification certificate whose
	// count of inconsistent voters exceeds the q − MinVotes slack.
	ErrTooManyViolations = errors.New("verify: inconsistent voters exceed the relaxed-verification slack")
)

// VerifyCertificate implements the Verification phase of Algorithm 1: it
// accepts the winning certificate only if
//
//  1. it is structurally sound (owner and color in range, vote values in
//     [1, m], k < m),
//  2. k = Σ_{h∈W} h mod m, and
//  3. W is consistent with the verifier's commitment log: for every voter
//     the verifier has information about, the multiset of that voter's votes
//     to the certificate owner inside W must exactly equal the declared
//     votes for the owner (none, for a voter marked faulty).
//
// Consistency is two-sided: an altered vote, an extra vote, and a *missing*
// committed vote all reject. The missing-vote direction is what stops a
// cheating winner from dropping votes to lower its k (Claim 1 in the paper's
// Theorem 7 proof relies on some honest agent holding the dropped voter's
// commitment).
//
// The protocol variants relax exactly step 3, never steps 1–2:
//
//   - ProtocolLiveRetarget checks that a known voter's votes in W form a
//     sub-multiset of that voter's declared values for *any* target, and
//     skips the missing-vote direction entirely — a vote absent from W may
//     legitimately have been retargeted elsewhere.
//   - ProtocolRelaxed keeps the strict per-voter checks but counts violating
//     voters (mismatched or missing — one violation each) and rejects only
//     when they exceed q − MinVotes.
//   - ProtocolRetransmit verifies strictly: receivers dedup redeliveries, so
//     W has baseline semantics.
//
// A nil error means the verifier supports cert.Color; any error means the
// verifier makes the protocol fail.
func VerifyCertificate(p Params, cert *Certificate, log *CommitmentLog) error {
	return verifyCertificate(&p, cert, log, &verifyScratch{})
}

// verifyScratch holds the two buffers verification needs, so pooled agents
// verify without allocating.
type verifyScratch struct {
	w   []WEntry
	exp []uint64
}

func verifyCertificate(p *Params, cert *Certificate, log *CommitmentLog, sc *verifyScratch) error {
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

// runSubsetSorted reports whether a (value-ascending) run of W entries is a
// sub-multiset of the sorted expectation list, by two-pointer merge.
func runSubsetSorted(run []WEntry, expected []uint64) bool {
	j := 0
	for _, e := range run {
		for j < len(expected) && expected[j] < e.Value {
			j++
		}
		if j >= len(expected) || expected[j] != e.Value {
			return false
		}
		j++
	}
	return true
}

// runEqualsSorted compares a (value-ascending) run of W entries against a
// sorted expectation list.
func runEqualsSorted(run []WEntry, expected []uint64) bool {
	if len(run) != len(expected) {
		return false
	}
	for i := range run {
		if run[i].Value != expected[i] {
			return false
		}
	}
	return true
}

// hasVoter reports whether the (voter-sorted) entries contain voter, by
// binary search.
func hasVoter(w []WEntry, voter int32) bool {
	lo, hi := 0, len(w)
	for lo < hi {
		mid := (lo + hi) / 2
		if w[mid].Voter < voter {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(w) && w[lo].Voter == voter
}
