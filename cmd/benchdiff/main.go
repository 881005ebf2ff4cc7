// Command benchdiff compares `go test -bench` output against a committed
// baseline and fails on regressions, giving CI a benchmark gate without
// external dependencies.
//
// Usage:
//
//	go test -run='^$' -bench='ScenarioRunnerBatch|DynamicScenarioBatch' -benchmem -count=5 . > bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_BASELINE.json bench.txt        # gate
//	go run ./cmd/benchdiff -baseline BENCH_BASELINE.json -update bench.txt # refresh
//
// A refresh keeps exactly the benchmark set already pinned in the baseline
// (updating their numbers); it never grows the set on its own, because bench
// output routinely contains sub-benchmarks the gate must not pin — the
// parallel workers>1 rows allocate GOMAXPROCS-dependent per-chunk state. Use
// -update -filter '<regexp>' to add names deliberately (or to bootstrap a
// baseline from nothing). A refresh preserves any per-benchmark threshold
// overrides the baseline carries, and it may be partial: a pinned benchmark
// the input does not contain keeps its row as it is, and the recorded cpu —
// which says where *every* row was measured — changes only when every row was
// refreshed.
//
// Multiple -count runs of one benchmark are reduced to their median, which
// is robust against the odd noisy run. Two classes of regression are gated
// independently:
//
//   - allocations (allocs/op and B/op) are deterministic per code version and
//     are compared unconditionally — exceeding the baseline by more than
//     the allocation threshold fails;
//   - ns/op is hardware-dependent, so it is gated (at the ns threshold) only
//     when the measuring CPU matches the baseline's recorded CPU string; on
//     different hardware the wall-clock comparison is reported but advisory,
//     which keeps the gate meaningful on a developer machine that refreshed
//     the baseline while preventing spurious CI failures on whatever runner
//     class the CI provider hands out.
//
// With several benchmarks gated at once, one shared threshold rarely fits
// all: a 13 ms macro-benchmark tolerates 15% noise, a 100 µs one may need
// more, a pure-alloc gate may want 0. The -ns-threshold / -alloc-threshold
// flags therefore set the shared default, and any baseline entry may carry
// its own "ns_threshold" / "alloc_threshold" fields overriding the flags for
// that benchmark alone.
//
// Benchmarks present in the baseline but missing from the new output fail the
// gate (a silently deleted benchmark is a silently dropped guarantee); new
// benchmarks absent from the baseline are reported and skipped. The skip is
// deliberate for incidental sub-benchmarks, but it also means a benchmark
// everyone *believes* is gated can silently not be: -require '<regexp>'
// closes that hole by failing, with an explicit message, when a measured
// benchmark matching the regexp has no baseline entry.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark reference (BENCH_BASELINE.json).
type Baseline struct {
	// CPU is the `cpu:` line of the machine that produced the baseline;
	// ns/op gating is conditional on it matching.
	CPU        string               `json:"cpu"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's reference numbers (medians over -count runs),
// plus optional per-benchmark gate thresholds overriding the shared flags.
type Benchmark struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// NsThreshold, when non-nil, replaces the -ns-threshold flag for this
	// benchmark (fraction; 0 tolerates no ns/op regression at all).
	NsThreshold *float64 `json:"ns_threshold,omitempty"`
	// AllocThreshold, when non-nil, replaces the -alloc-threshold flag for
	// this benchmark's allocs/op and B/op comparisons.
	AllocThreshold *float64 `json:"alloc_threshold,omitempty"`
}

// gateOptions configures a comparison run.
type gateOptions struct {
	// NsThreshold and AllocThreshold are the shared regression tolerances
	// (fractions), overridable per baseline entry.
	NsThreshold    float64
	AllocThreshold float64
	// CPU is the measuring machine's cpu: line; ns/op gating requires it to
	// equal the baseline's.
	CPU string
	// Require, when non-nil, names the benchmarks that must be gated: a
	// measured benchmark matching it without a baseline entry fails.
	Require *regexp.Regexp
}

func main() {
	var (
		baselinePath   = flag.String("baseline", "BENCH_BASELINE.json", "baseline JSON path")
		update         = flag.Bool("update", false, "rewrite the baseline from the measured results instead of comparing")
		filter         = flag.String("filter", "", "with -update, regexp of benchmark names to (also) include; by default a refresh keeps exactly the benchmark set already in the baseline")
		nsThreshold    = flag.Float64("ns-threshold", 0.15, "default maximum tolerated ns/op regression (fraction); a baseline entry's ns_threshold overrides it")
		allocThreshold = flag.Float64("alloc-threshold", 0.15, "default maximum tolerated allocs/op and B/op regression (fraction); a baseline entry's alloc_threshold overrides it")
		require        = flag.String("require", "", "regexp of benchmark names that must have a baseline entry; a measured match without one fails instead of being silently skipped")
	)
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	cpu, results, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark results in input"))
	}

	if *update {
		if err := updateBaseline(*baselinePath, cpu, medians(results), *filter); err != nil {
			fatal(err)
		}
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *baselinePath, err))
	}
	opts := gateOptions{NsThreshold: *nsThreshold, AllocThreshold: *allocThreshold, CPU: cpu}
	if *require != "" {
		if opts.Require, err = regexp.Compile(*require); err != nil {
			fatal(fmt.Errorf("bad -require: %w", err))
		}
	}
	lines, failed := gate(base, medians(results), opts)
	for _, l := range lines {
		fmt.Println(l)
	}
	if failed {
		fmt.Println("benchdiff: FAIL — regression past threshold, missing benchmark, or ungated required benchmark")
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok")
}

// updateBaseline rewrites the baseline from the measured medians. A refresh
// keeps the baseline's curated benchmark set: the bench output usually
// contains sub-benchmarks the gate deliberately excludes (the parallel
// workers>1 tables allocate GOMAXPROCS-dependent per-chunk state), and
// blindly writing everything would re-introduce them. filter opts names in
// explicitly; with no existing baseline the filter (default: everything)
// bootstraps it. Per-benchmark threshold overrides carry over from the
// previous baseline.
func updateBaseline(path, cpu string, med map[string]Benchmark, filter string) error {
	var prev Baseline
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("parsing existing %s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		// Only a genuinely absent baseline may be bootstrapped from scratch:
		// treating a permission or I/O error as "no baseline" would silently
		// discard the curated benchmark set and its threshold overrides.
		return fmt.Errorf("reading existing %s: %w", path, err)
	}
	var include *regexp.Regexp
	if filter != "" {
		var err error
		if include, err = regexp.Compile(filter); err != nil {
			return fmt.Errorf("bad -filter: %w", err)
		}
	}
	b, kept := refresh(prev, cpu, med, include)
	for _, name := range kept {
		fmt.Printf("benchdiff: %s in baseline but not in results; keeping its row\n", name)
	}
	if len(b.Benchmarks) == 0 {
		return fmt.Errorf("refusing to write an empty baseline (no benchmark matched)")
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchdiff: wrote %s (%d benchmarks, cpu %q)\n", path, len(b.Benchmarks), b.CPU)
	return nil
}

// refresh computes the baseline a refresh writes: prev's benchmark set with
// every measured row's numbers replaced (threshold overrides kept), plus the
// measured names include opts in. A pinned row the input lacks is carried over
// untouched and listed in kept; the baseline then still holds rows measured on
// prev's CPU, so prev's cpu string stays. With no previous baseline, include
// (nil: everything) selects what bootstraps it.
func refresh(prev Baseline, cpu string, med map[string]Benchmark, include *regexp.Regexp) (next Baseline, kept []string) {
	next = Baseline{CPU: cpu, Benchmarks: make(map[string]Benchmark)}
	for name, b := range med {
		old, inPrev := prev.Benchmarks[name]
		if inPrev || (include != nil && include.MatchString(name)) || (prev.Benchmarks == nil && include == nil) {
			b.NsThreshold = old.NsThreshold
			b.AllocThreshold = old.AllocThreshold
			next.Benchmarks[name] = b
		}
	}
	for name, old := range prev.Benchmarks {
		if _, ok := med[name]; !ok {
			next.Benchmarks[name] = old
			kept = append(kept, name)
		}
	}
	if len(kept) > 0 {
		next.CPU = prev.CPU
	}
	sort.Strings(kept)
	return next, kept
}

// gate compares measured medians against the baseline and returns the report
// lines plus whether the gate failed. It is main's comparison logic, split
// out so tests can drive it without a process boundary.
func gate(base Baseline, med map[string]Benchmark, opts gateOptions) (lines []string, failed bool) {
	sameCPU := opts.CPU != "" && opts.CPU == base.CPU
	if !sameCPU {
		lines = append(lines, fmt.Sprintf("benchdiff: cpu %q != baseline cpu %q — ns/op is advisory on this machine", opts.CPU, base.CPU))
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := med[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("FAIL %s: present in baseline but missing from results", name))
			failed = true
			continue
		}
		nsT, allocT := opts.NsThreshold, opts.AllocThreshold
		if want.NsThreshold != nil {
			nsT = *want.NsThreshold
		}
		if want.AllocThreshold != nil {
			allocT = *want.AllocThreshold
		}
		nsBad := exceeded(got.NsPerOp, want.NsPerOp, nsT)
		allocBad := exceeded(got.AllocsPerOp, want.AllocsPerOp, allocT)
		bytesBad := exceeded(got.BytesPerOp, want.BytesPerOp, allocT)
		status := "ok  "
		if allocBad || bytesBad || (nsBad && sameCPU) {
			status = "FAIL"
			failed = true
		}
		lines = append(lines, fmt.Sprintf("%s %s: ns/op %s  B/op %s  allocs/op %s", status, name,
			delta(got.NsPerOp, want.NsPerOp, nsBad && sameCPU),
			delta(got.BytesPerOp, want.BytesPerOp, bytesBad),
			delta(got.AllocsPerOp, want.AllocsPerOp, allocBad)))
	}
	ungated := make([]string, 0)
	for name := range med {
		if _, ok := base.Benchmarks[name]; !ok {
			ungated = append(ungated, name)
		}
	}
	sort.Strings(ungated)
	for _, name := range ungated {
		if opts.Require != nil && opts.Require.MatchString(name) {
			lines = append(lines, fmt.Sprintf("FAIL %s: matches -require but has no baseline entry — it is NOT gated; pin it with `benchdiff -update -filter '%s'`", name, regexp.QuoteMeta(name)))
			failed = true
			continue
		}
		lines = append(lines, fmt.Sprintf("note %s: not in baseline, not gated (benchdiff -update -filter can pin it)", name))
	}
	return lines, failed
}

// exceeded reports whether got regressed past want by more than threshold.
// A zero baseline only tolerates zero (relevant for allocs/op pinned at 0).
func exceeded(got, want, threshold float64) bool {
	if want == 0 {
		return got > 0
	}
	return got > want*(1+threshold)
}

// delta renders "got (+x%)" against the baseline value.
func delta(got, want float64, bad bool) string {
	pct := 0.0
	if want != 0 {
		pct = (got - want) / want * 100
	}
	mark := ""
	if bad {
		mark = "!"
	}
	return fmt.Sprintf("%.4g (%+.1f%%%s)", got, pct, mark)
}

// medians reduces repeated runs of each benchmark to per-metric medians.
func medians(results map[string][]Benchmark) map[string]Benchmark {
	out := make(map[string]Benchmark, len(results))
	for name, runs := range results {
		out[name] = Benchmark{
			NsPerOp:     median(runs, func(b Benchmark) float64 { return b.NsPerOp }),
			BytesPerOp:  median(runs, func(b Benchmark) float64 { return b.BytesPerOp }),
			AllocsPerOp: median(runs, func(b Benchmark) float64 { return b.AllocsPerOp }),
		}
	}
	return out
}

func median(runs []Benchmark, get func(Benchmark) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = get(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
var metricRe = regexp.MustCompile(`([0-9.]+) (B/op|allocs/op)`)

// parseBench reads `go test -bench` output: the cpu: header line and every
// benchmark result line (one entry per -count repetition).
func parseBench(r io.Reader) (cpu string, results map[string][]Benchmark, err error) {
	results = make(map[string][]Benchmark)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1][len("Benchmark"):]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		b := Benchmark{NsPerOp: ns}
		for _, mm := range metricRe.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				return "", nil, fmt.Errorf("bad metric in %q: %w", line, err)
			}
			switch mm[2] {
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		results[name] = append(results[name], b)
	}
	return cpu, results, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
