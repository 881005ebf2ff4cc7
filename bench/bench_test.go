//go:build linux

package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// The tests here cover the pieces that decide what gets counted. They run no
// workload and open no socket.

func TestQuietSlices(t *testing.T) {
	const quiet, busy = 5.0, 10.0
	for _, tc := range []struct {
		name   string
		probes []float64
		want   []bool
	}{
		{
			// A contended spell at the start: the slices it touches are out,
			// including the one whose closing probe was already quiet.
			name:   "spell at the start",
			probes: []float64{busy, busy, busy, quiet, quiet, 5.2, quiet},
			want:   []bool{false, false, false, true, true, true},
		},
		{
			// Spells that come and go: a slice needs both of its probes quiet,
			// so a single busy probe spoils the slice on either side of it.
			name:   "alternating spells",
			probes: []float64{quiet, quiet, busy, quiet, quiet, quiet, busy, busy, quiet, quiet},
			want:   []bool{true, false, false, true, true, false, false, false, true},
		},
		{
			// Contended from start to finish: the run's own fastest probe is
			// the reference, so everything near it counts. Only
			// host.probe_min_ms, compared with other runs, gives this away.
			name:   "fully contended run",
			probes: []float64{busy, 10.4, busy, 10.9, 11.2, busy},
			want:   []bool{true, true, true, false, false},
		},
		{
			name:   "just inside and just outside the tolerance",
			probes: []float64{quiet, quiet * probeTolerance, quiet*probeTolerance + 0.01, quiet},
			want:   []bool{true, false, false},
		},
	} {
		got := quietSlices(tc.probes, quietLimit(tc.probes))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := quietSlices([]float64{5}, 5.5); got != nil {
		t.Errorf("one probe brackets no slice, got %v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort a copy
		}
		return xs
	}
	for _, tc := range []struct {
		n              int
		wantValue      float64
		wantPercentile float64
	}{
		{n: 1000, wantValue: 990, wantPercentile: 99},           // 10 samples above the 990th
		{n: 100, wantValue: 90, wantPercentile: 90},             // p99 would have 1 beyond
		{n: 40, wantValue: 30, wantPercentile: 75},              // the live-* floor region
		{n: 25, wantValue: 15, wantPercentile: 60},              //
		{n: 21, wantValue: 11, wantPercentile: 100 * 11.0 / 21}, // the lowest n whose tail is above the median
		{n: 20, wantValue: 10.5, wantPercentile: 50},            // no percentile above the median qualifies
		{n: 3, wantValue: 2, wantPercentile: 50},
	} {
		xs := series(tc.n)
		value, percentile := tail(xs)
		if value != tc.wantValue || math.Abs(percentile-tc.wantPercentile) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, value, percentile, tc.wantValue, tc.wantPercentile)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("n=%d: tail reordered its input", tc.n)
		}
	}
}

func TestWindowDone(t *testing.T) {
	const nominal, limit = 20 * time.Second, 30 * time.Second
	for _, tc := range []struct {
		name    string
		elapsed time.Duration
		quiet   int
		want    bool
	}{
		{"before the nominal length, floor already met", 19 * time.Second, 90, false},
		{"nominal length reached with the floor met", 20 * time.Second, 40, true},
		{"nominal length reached, one quiet slice short", 20 * time.Second, 39, false},
		{"extending, still short", 29 * time.Second, 12, false},
		{"extending, floor met on the way", 24 * time.Second, 40, true},
		{"cap reached with nothing quiet at all", 30 * time.Second, 0, true},
	} {
		if got := windowDone(tc.elapsed, nominal, limit, tc.quiet, 40); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSummarizeCountsQuietSlicesOnly(t *testing.T) {
	op := func(latency float64) opResult { return opResult{latencyMS: latency, nodeRounds: 1000} }
	fast := slice{wallS: 1, cpuS: 0.5, ops: []opResult{op(100), op(100)}}
	slow := slice{wallS: 4, cpuS: 3, ops: []opResult{op(400)}}
	w := window{
		setups: []setupTiming{{seconds: 1, before: 5, after: 5}, {seconds: 9, before: 10, after: 5}, {seconds: 3, before: 5, after: 5}},
		probes: []float64{5, 5},
		slices: []slice{fast},
		rssMB:  42,
	}
	// One busy probe spoils the slice that closes on it and the one that
	// opens on it; then quiet slices up to the minimum a median is taken
	// over, the last of them holding a failed op.
	w.probes = append(w.probes, 10, 5)
	w.slices = append(w.slices, slow, slow)
	for len(w.slices) < minQuietSlices+1 {
		w.probes = append(w.probes, 5)
		w.slices = append(w.slices, fast)
	}
	w.probes = append(w.probes, 5)
	w.slices = append(w.slices, slice{wallS: 2, cpuS: 1, ops: []opResult{op(200), {latencyMS: 1, err: os.ErrInvalid}}})

	sum := w.summarize(9999)
	if sum.slices != minQuietSlices+2 || sum.quietSlices != minQuietSlices || sum.quietSetups != 2 {
		t.Fatalf("slices %d, quiet %d, quiet set-ups %d; want %d, %d, 2", sum.slices, sum.quietSlices, sum.quietSetups, minQuietSlices+2, minQuietSlices)
	}
	if want := 2*(minQuietSlices-1) + 2 + 2; sum.attempted != want || sum.failed != 1 {
		t.Errorf("attempted %d, failed %d; want %d, 1 — every slice's ops are counted, quiet or not", sum.attempted, sum.failed, want)
	}
	want := map[string]float64{
		"setup_s":               2,    // median of the quiet 1 and 3, not the 9
		"node_rounds_per_s":     2000, // the slow slices at 250/s are out
		"op_p50_ms":             100,
		"op_tail_ms":            100, // 16 samples: no tail percentile qualifies
		"cpu_us_per_node_round": 250,
		"peak_rss_mb":           42,
	}
	if !reflect.DeepEqual(sum.metrics, want) {
		t.Errorf("metrics %v, want %v", sum.metrics, want)
	}
	if sum.quietOps != 2*minQuietSlices {
		t.Errorf("%d quiet ops, want %d: the failed op is charged, not dropped", sum.quietOps, 2*minQuietSlices)
	}

	// One quiet slice fewer and there is too little to take a median over:
	// the run reports from every slice, and its quiet count says so.
	w.probes[len(w.probes)-1] = 10
	sum = w.summarize(9999)
	if sum.quietSlices != minQuietSlices-1 || sum.quietOps != sum.attempted {
		t.Errorf("quiet slices %d, quiet ops %d of %d; want %d and all of them", sum.quietSlices, sum.quietOps, sum.attempted, minQuietSlices-1)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "core.Run (by hand)", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "core.PrepareRun", StartNS: 5, EndNS: 25},
		{ID: 3, Parent: 1, Name: "gossip.Engine.Step", StartNS: 30, EndNS: 60},
		{ID: 4, Parent: 1, Name: "gossip.Engine.Step", StartNS: 50, EndNS: 80}, // overlaps span 3: counted once
		{ID: 5, Parent: 3, Name: "topo.Advance", StartNS: 35, EndNS: 45},
		{ID: 6, Parent: 1, Name: "runs past its parent", StartNS: 95, EndNS: 120},
	}
	want := map[int]int64{
		1: 100 - 20 - 50 - 5, // children cover [5,25], [30,80] and [95,100]
		2: 20,
		3: 30 - 10,
		4: 30,
		5: 10,
		6: 25,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestLadderSelfTimes(t *testing.T) {
	l := newLadder("sim-static", 3, []rung{
		{Layer: "gossip", SpanMS: 100},
		{Layer: "core", SpanMS: 104},
		{Layer: "scenario", SpanMS: 103}, // measured faster than the rung it contains: noise
		{Layer: "fairgossip", SpanMS: 110},
	})
	if l.Rungs[0].Layer != "fairgossip" || l.Rungs[3].Layer != "gossip" {
		t.Fatalf("rungs are listed top first, got %+v", l.Rungs)
	}
	wantSelf := []float64{7, 0, 4, 100}
	for i, r := range l.Rungs {
		if r.SelfMS != wantSelf[i] {
			t.Errorf("%s: self %v ms, want %v", r.Layer, r.SelfMS, wantSelf[i])
		}
	}
	if l.TopMS != 110 || l.SelfSumMS != 111 || !l.Consistent {
		t.Errorf("top %v, self sum %v, consistent %v; want 110, 111, true", l.TopMS, l.SelfSumMS, l.Consistent)
	}
	noisy := newLadder("live-channel", 2, []rung{{Layer: "core", SpanMS: 100}, {Layer: "runtime", SpanMS: 50}, {Layer: "fairgossip", SpanMS: 60}})
	if noisy.Consistent {
		t.Errorf("self times summing to %v ms of a %v ms top span must not pass as consistent", noisy.SelfSumMS, noisy.TopMS)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("five values: %v %v %v", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the driver's contract and the tables
// the program reports from in step: same workloads, same metrics, same
// units, directions and bounds.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, listed []metric, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(listed), kind, len(specs))
		}
		for i, spec := range specs {
			better := "lower"
			if spec.higher {
				better = "higher"
			}
			if want := (metric{spec.name, spec.unit, better, spec.bound}); listed[i] != want {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the code", kind, i, listed[i], want)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
}
