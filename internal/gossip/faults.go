package gossip

// FaultSchedule describes which nodes are quiescent at a given point in
// scheduler time: r is the synchronous round number under Engine and the
// tick number under AsyncEngine. A quiescent node does not act, does not
// receive pushes, and does not answer pulls — the paper's permanently-faulty
// behaviour (Section 2), generalized over time so that crash-at-round-r and
// churn fault models are expressible without touching delivery semantics.
// The paper's permanent faults themselves are Config.Faulty; a schedule adds
// quiescence on top of them.
//
// Implementations must be pure functions of (r, u): the executor may consult
// them multiple times per round and from the parallel Act phase.
type FaultSchedule interface {
	Silent(r, u int) bool
}

// CrashSchedule runs the masked nodes honestly until round Round, then
// silences them permanently — a crash fault with a chosen onset.
type CrashSchedule struct {
	Mask  []bool
	Round int
}

// Silent reports whether u has crashed by round r.
func (c CrashSchedule) Silent(r, u int) bool {
	return r >= c.Round && len(c.Mask) != 0 && c.Mask[u]
}

// ChurnSchedule alternates the masked nodes between Period rounds up and
// Period rounds down, staggered by node ID so the affected cohort never
// disappears all at once. Period must be positive for the mask to have any
// effect.
type ChurnSchedule struct {
	Mask   []bool
	Period int
}

// Silent reports whether u is in a down interval at round r.
func (c ChurnSchedule) Silent(r, u int) bool {
	if c.Period <= 0 || len(c.Mask) == 0 || !c.Mask[u] {
		return false
	}
	return (r/c.Period+u)%2 == 1
}
