//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call — nothing is recorded inside the program.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: no parent
	Name    string `json:"name"`   // <layer>.<function>
	Op      uint64 `json:"op"`     // the op's seed: spans of one op share it
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) duration() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the same ladder code runs traced and untraced, and the difference
// between the two is the tracing overhead.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // ids of the spans in progress, innermost last
	muted bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// mute switches recording off and on again without changing what runs.
func (t *tracer) mute(on bool) {
	if t != nil {
		t.muted = on
	}
}

// span times fn and, when tracing, records it as a child of the span in
// progress. It returns fn's duration either way.
func (t *tracer) span(name string, op uint64, fn func()) time.Duration {
	if t == nil || t.muted {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op})
	t.open = append(t.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.StartNS, s.EndNS = start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()
	return end.Sub(start)
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(workload string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".jsonl"), buf.Bytes(), 0o644)
}

// selfTimes returns each span's self time by id: its duration minus the part
// of its interval that its direct children cover. Children are clipped to
// the parent and overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[s.ID] = s.duration() - covered
	}
	return self
}

// rung is one level of a workload's ladder: the same ops, same seeds, run
// through one layer's public entry point. Each rung contains the one below
// it, so what a layer adds is its span minus the lower rung's.
type rung struct {
	Layer  string  `json:"layer"`
	Call   string  `json:"call"`
	SpanMS float64 `json:"span_ms"` // fastest of the ladder's ops
	SelfMS float64 `json:"self_ms"`
}

// ladder is a workload's rungs, top first, with the consistency check the
// reader wants: self times that do not add up to the top span mean a lower
// rung ran slower than the rung that contains it, i.e. noise.
type ladder struct {
	Workload   string  `json:"workload"`
	Ops        int     `json:"ops"`
	Rungs      []rung  `json:"rungs"`
	TopMS      float64 `json:"top_ms"`
	SelfSumMS  float64 `json:"self_sum_ms"`
	Consistent bool    `json:"consistent"` // self times sum to within 10 % of the top span
	// Calls breaks the recorded spans down by the call they wrap: where,
	// inside the rungs, the time went.
	Calls []callSelf `json:"calls"`
}

// callSelf is the self time of every span of one name, per op.
type callSelf struct {
	Name   string  `json:"name"`
	PerOp  float64 `json:"spans_per_op"`
	SelfMS float64 `json:"self_ms_per_op"`
}

// callSelfTimes sums span self times by span name and divides by ops,
// largest first.
func callSelfTimes(spans []span, ops int) []callSelf {
	self := selfTimes(spans)
	byName := map[string]*callSelf{}
	var calls []*callSelf
	for _, s := range spans {
		c := byName[s.Name]
		if c == nil {
			c = &callSelf{Name: s.Name}
			byName[s.Name] = c
			calls = append(calls, c)
		}
		c.PerOp += 1 / float64(ops)
		c.SelfMS += float64(self[s.ID]) / 1e6 / float64(ops)
	}
	sort.SliceStable(calls, func(i, j int) bool { return calls[i].SelfMS > calls[j].SelfMS })
	out := make([]callSelf, len(calls))
	for i, c := range calls {
		out[i] = *c
	}
	return out
}

// newLadder derives self times from per-rung spans given bottom first. A
// rung that measured faster than the one below it gets self time 0, not a
// negative one.
func newLadder(workload string, ops int, bottomUp []rung) ladder {
	l := ladder{Workload: workload, Ops: ops}
	below := 0.0
	for _, r := range bottomUp {
		r.SelfMS = max(r.SpanMS-below, 0)
		below = r.SpanMS
		l.SelfSumMS += r.SelfMS
		l.Rungs = append([]rung{r}, l.Rungs...)
	}
	l.TopMS = below
	l.Consistent = l.TopMS > 0 && l.SelfSumMS >= 0.9*l.TopMS && l.SelfSumMS <= 1.1*l.TopMS
	return l
}

func (l ladder) print(w io.Writer) {
	fmt.Fprintf(w, "  ladder %s (fastest of %d ops): self times sum to %.3f ms of a %.3f ms top span", l.Workload, l.Ops, l.SelfSumMS, l.TopMS)
	if !l.Consistent {
		fmt.Fprint(w, "  INCONSISTENT")
	}
	fmt.Fprintln(w)
	for _, r := range l.Rungs {
		fmt.Fprintf(w, "    %-11s %-52s span %10.3f ms   self %10.3f ms\n", r.Layer, r.Call, r.SpanMS, r.SelfMS)
	}
	for i, c := range l.Calls {
		if i == 6 {
			break
		}
		fmt.Fprintf(w, "      by call: %-52s × %-7.4g self %10.3f ms per op\n", c.Name, c.PerOp, c.SelfMS)
	}
}
