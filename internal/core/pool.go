package core

import (
	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// RunPool holds every piece of per-execution state a cooperative synchronous
// Run needs — the agents (with their RNG streams, commitment logs, and
// payload buffers), the engine's per-round scratch, and the counters — so a
// Monte-Carlo loop can execute trials with near-zero steady-state allocation.
//
// Ownership: a pool may be used by one Run at a time. Everything a pooled
// RunResult exposes by reference (Agents, and anything reached through them:
// certificates, vote slices, logs) lives in the pool and is invalidated by
// the next Run that uses the same pool; callers that retain per-trial results
// must either copy what they need or hand each concurrent trial its own pool.
// The zero value is ready to use. Pooled and unpooled runs are byte-identical
// for a given seed.
type RunPool struct {
	master   rng.Source
	store    []Agent // agent slot storage; slot i serves node i
	gagents  []gossip.Agent
	honest   []*Agent
	reliable []*Agent
	parts    []Participant
	excluded []bool
	counters metrics.Counters
	droprng  rng.Source // keys the message-loss decisions, reseeded per lossy run
	mem      gossip.EngineMem
	setup    RunSetup // the run in progress; PrepareRun returns a pointer to it
}

// ensure sizes the pool's per-node slices for n nodes, reusing capacity.
func (pl *RunPool) ensure(n int) {
	if cap(pl.store) < n {
		pl.store = make([]Agent, n)
		pl.gagents = make([]gossip.Agent, n)
		pl.parts = make([]Participant, n)
	}
	pl.store = pl.store[:n]
	pl.gagents = pl.gagents[:n]
	pl.parts = pl.parts[:n]
	if cap(pl.honest) < n {
		pl.honest = make([]*Agent, 0, n)
		pl.reliable = make([]*Agent, 0, n)
	}
	pl.honest = pl.honest[:0]
	pl.reliable = pl.reliable[:0]
}

// ensureExcluded returns a length-n scratch mask, reusing capacity.
func (pl *RunPool) ensureExcluded(n int) []bool {
	if cap(pl.excluded) < n {
		pl.excluded = make([]bool, n)
	}
	pl.excluded = pl.excluded[:n]
	for i := range pl.excluded {
		pl.excluded[i] = false
	}
	return pl.excluded
}
