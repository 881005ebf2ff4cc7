package main

import (
	"regexp"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }

func baseline(entries map[string]Benchmark) Baseline {
	return Baseline{CPU: "test-cpu", Benchmarks: entries}
}

// hasLine reports whether any report line contains all the given substrings.
func hasLine(lines []string, subs ...string) bool {
	for _, l := range lines {
		ok := true
		for _, s := range subs {
			if !strings.Contains(l, s) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestGatePassesWithinThresholds(t *testing.T) {
	base := baseline(map[string]Benchmark{
		"A/workers=1": {NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
	})
	med := map[string]Benchmark{
		"A/workers=1": {NsPerOp: 1100, BytesPerOp: 110, AllocsPerOp: 11},
	}
	lines, failed := gate(base, med, gateOptions{NsThreshold: 0.15, AllocThreshold: 0.15, CPU: "test-cpu"})
	if failed {
		t.Fatalf("gate failed within thresholds:\n%s", strings.Join(lines, "\n"))
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	base := baseline(map[string]Benchmark{"A": {NsPerOp: 1000, AllocsPerOp: 10}})
	med := map[string]Benchmark{"A": {NsPerOp: 1000, AllocsPerOp: 20}}
	lines, failed := gate(base, med, gateOptions{NsThreshold: 0.15, AllocThreshold: 0.15, CPU: "other"})
	if !failed || !hasLine(lines, "FAIL A") {
		t.Fatalf("alloc regression not caught:\n%s", strings.Join(lines, "\n"))
	}
}

func TestGateNsAdvisoryOnDifferentCPU(t *testing.T) {
	base := baseline(map[string]Benchmark{"A": {NsPerOp: 1000, AllocsPerOp: 10}})
	med := map[string]Benchmark{"A": {NsPerOp: 5000, AllocsPerOp: 10}}
	lines, failed := gate(base, med, gateOptions{NsThreshold: 0.15, AllocThreshold: 0.15, CPU: "other"})
	if failed {
		t.Fatalf("ns/op gated despite CPU mismatch:\n%s", strings.Join(lines, "\n"))
	}
	if _, failed = gate(base, med, gateOptions{NsThreshold: 0.15, AllocThreshold: 0.15, CPU: "test-cpu"}); !failed {
		t.Fatal("ns/op regression not gated on matching CPU")
	}
}

func TestGateFailsOnBenchmarkMissingFromResults(t *testing.T) {
	base := baseline(map[string]Benchmark{"A": {NsPerOp: 1000}, "B": {NsPerOp: 1000}})
	med := map[string]Benchmark{"A": {NsPerOp: 1000}}
	lines, failed := gate(base, med, gateOptions{NsThreshold: 0.15, AllocThreshold: 0.15, CPU: "test-cpu"})
	if !failed || !hasLine(lines, "FAIL B", "missing from results") {
		t.Fatalf("missing benchmark not caught:\n%s", strings.Join(lines, "\n"))
	}
}

// TestGateRequireCatchesUngatedBenchmark pins the -require contract: a
// measured benchmark everyone believes is gated but that has no baseline
// entry must fail loudly instead of passing as an ignorable note.
func TestGateRequireCatchesUngatedBenchmark(t *testing.T) {
	base := baseline(map[string]Benchmark{"A/workers=1": {NsPerOp: 1000}})
	med := map[string]Benchmark{
		"A/workers=1": {NsPerOp: 1000},
		"B/workers=1": {NsPerOp: 999999}, // any numbers: it has no baseline to regress against
		"B/workers=4": {NsPerOp: 1},      // not required: parallel rows stay un-pinned
	}
	opts := gateOptions{NsThreshold: 0.15, AllocThreshold: 0.15, CPU: "test-cpu",
		Require: regexp.MustCompile(`workers=1$`)}
	lines, failed := gate(base, med, opts)
	if !failed || !hasLine(lines, "FAIL B/workers=1", "NOT gated") {
		t.Fatalf("ungated required benchmark not caught:\n%s", strings.Join(lines, "\n"))
	}
	if !hasLine(lines, "note B/workers=4") {
		t.Fatalf("non-required new benchmark should stay an ignorable note:\n%s", strings.Join(lines, "\n"))
	}
	// Without -require the same input passes (the pre-require behavior).
	opts.Require = nil
	if _, failed := gate(base, med, opts); failed {
		t.Fatal("gate failed without -require")
	}
}

// TestGatePerBenchmarkThresholds pins the override semantics: an entry's own
// ns_threshold / alloc_threshold replace the shared flags for that entry
// only.
func TestGatePerBenchmarkThresholds(t *testing.T) {
	base := baseline(map[string]Benchmark{
		"tight": {NsPerOp: 1000, AllocsPerOp: 100, AllocThreshold: f64(0)},
		"loose": {NsPerOp: 1000, AllocsPerOp: 100, NsThreshold: f64(1.0)},
		"plain": {NsPerOp: 1000, AllocsPerOp: 100},
	})
	med := map[string]Benchmark{
		"tight": {NsPerOp: 1000, AllocsPerOp: 101}, // +1% allocs: over its 0 threshold
		"loose": {NsPerOp: 1900, AllocsPerOp: 100}, // +90% ns: within its 100% threshold
		"plain": {NsPerOp: 1900, AllocsPerOp: 100}, // +90% ns: over the shared 15%
	}
	lines, failed := gate(base, med, gateOptions{NsThreshold: 0.15, AllocThreshold: 0.15, CPU: "test-cpu"})
	if !failed {
		t.Fatalf("gate passed:\n%s", strings.Join(lines, "\n"))
	}
	if !hasLine(lines, "FAIL tight") {
		t.Fatalf("per-benchmark alloc_threshold 0 not applied:\n%s", strings.Join(lines, "\n"))
	}
	if !hasLine(lines, "ok   loose") {
		t.Fatalf("per-benchmark ns_threshold 1.0 not applied:\n%s", strings.Join(lines, "\n"))
	}
	if !hasLine(lines, "FAIL plain") {
		t.Fatalf("shared ns threshold not applied to plain entry:\n%s", strings.Join(lines, "\n"))
	}
}

// TestRefreshIsPartial pins what -update writes: measured rows replace their
// numbers and keep their threshold overrides; a pinned row the input lacks is
// kept as it is, and then the recorded cpu stays too; unpinned measured rows
// join only through the filter; cpu moves once every row was refreshed.
func TestRefreshIsPartial(t *testing.T) {
	prev := baseline(map[string]Benchmark{
		"A/workers=1": {NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10, AllocThreshold: f64(0.3)},
		"B/n=1024":    {NsPerOp: 5000, BytesPerOp: 500, AllocsPerOp: 50, NsThreshold: f64(0.5)},
	})
	med := map[string]Benchmark{
		"B/n=1024":    {NsPerOp: 4000, BytesPerOp: 400, AllocsPerOp: 40},
		"B/n=128":     {NsPerOp: 400, BytesPerOp: 40, AllocsPerOp: 4},
		"C/workers=4": {NsPerOp: 7, BytesPerOp: 7, AllocsPerOp: 7},
	}
	next, kept := refresh(prev, "new-cpu", med, regexp.MustCompile(`^C/`))
	if len(kept) != 1 || kept[0] != "A/workers=1" {
		t.Fatalf("kept = %v, want the one row missing from the input", kept)
	}
	if next.CPU != "test-cpu" {
		t.Fatalf("cpu = %q after a partial refresh, want the baseline's", next.CPU)
	}
	if a := next.Benchmarks["A/workers=1"]; a.NsPerOp != 1000 || a.AllocsPerOp != 10 || a.AllocThreshold == nil || *a.AllocThreshold != 0.3 {
		t.Fatalf("row missing from the input changed: %+v", a)
	}
	if b := next.Benchmarks["B/n=1024"]; b.NsPerOp != 4000 || b.AllocsPerOp != 40 || b.NsThreshold == nil || *b.NsThreshold != 0.5 {
		t.Fatalf("refreshed row = %+v, want the measured numbers under the kept override", b)
	}
	if _, ok := next.Benchmarks["B/n=128"]; ok {
		t.Fatal("an unpinned, unfiltered row joined the baseline")
	}
	if _, ok := next.Benchmarks["C/workers=4"]; !ok || len(next.Benchmarks) != 3 {
		t.Fatalf("benchmark set = %v, want A, B/n=1024 and the filtered-in C", next.Benchmarks)
	}

	med["A/workers=1"] = Benchmark{NsPerOp: 900, BytesPerOp: 90, AllocsPerOp: 9}
	next, kept = refresh(prev, "new-cpu", med, nil)
	if len(kept) != 0 || next.CPU != "new-cpu" || len(next.Benchmarks) != 2 {
		t.Fatalf("full refresh: kept %v cpu %q set %v, want none, the new cpu, the pinned two", kept, next.CPU, next.Benchmarks)
	}

	next, _ = refresh(Baseline{}, "new-cpu", med, nil)
	if len(next.Benchmarks) != len(med) || next.CPU != "new-cpu" {
		t.Fatalf("bootstrap wrote %v on %q, want every measured row", next.Benchmarks, next.CPU)
	}
}

func TestParseBenchReadsGoTestOutput(t *testing.T) {
	out := `goos: linux
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkScenarioRunnerBatch/workers=1-4         	      88	  13524585 ns/op	         0.3500 failRate	   59215 B/op	     102 allocs/op
BenchmarkScenarioRunnerBatch/workers=1-4         	      90	  13000000 ns/op	         0.3500 failRate	   59000 B/op	     100 allocs/op
BenchmarkPlain 	 5	 200 ns/op
PASS
`
	cpu, results, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.70GHz" {
		t.Fatalf("cpu = %q", cpu)
	}
	if got := len(results["ScenarioRunnerBatch/workers=1"]); got != 2 {
		t.Fatalf("parsed %d runs for the sub-benchmark", got)
	}
	med := medians(results)
	if med["ScenarioRunnerBatch/workers=1"].AllocsPerOp != 101 {
		t.Fatalf("median allocs/op = %v", med["ScenarioRunnerBatch/workers=1"].AllocsPerOp)
	}
	if med["Plain"].NsPerOp != 200 {
		t.Fatalf("plain benchmark ns/op = %v", med["Plain"].NsPerOp)
	}
}
