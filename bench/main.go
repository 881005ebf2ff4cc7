//go:build linux

// Command bench is the repository's benchmark: four workloads over the whole
// stack, six end-to-end metrics taken from probe-gated quiet slices, and a
// traced run that prices every layer. README.md in this directory explains
// what is measured and why; BENCHMARK.json at the repository root is the
// contract a driver runs it by.
//
//	go run ./bench -workload sim-static -seed 1 -seconds 20 -trace 0
//	go run ./bench -workload sim-static -seed 1 -seconds 20 -trace 1
//	go run ./bench -selfcheck 5 -seconds 20
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"
)

// metricSpec names one reported metric. bound is the share by which an
// end-to-end metric may worsen before a change counts as a regression; it is
// 0 for per-layer metrics, which are never gated. BENCHMARK.json repeats
// this table for the driver and a unit test keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

var endToEnd = []metricSpec{
	{"setup_s", "s", false, 0.25},
	{"node_rounds_per_s", "1/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"op_tail_ms", "ms", false, 0.25},
	{"cpu_us_per_node_round", "us", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.15},
}

// result is the one line a run prints on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record of a run, written to bench/out/ and summarised
// on standard error: the result line plus what a reader needs to judge it.
type report struct {
	Workload string   `json:"workload"`
	Traced   bool     `json:"traced"`
	Seed     uint64   `json:"seed"`
	Seconds  int      `json:"seconds"`
	Host     hostInfo `json:"host"`
	Result   result   `json:"result"`
	// Untraced runs: how much of the window counted.
	Window *windowInfo `json:"window,omitempty"`
	// Traced runs: each workload's ladder.
	Ladders []ladder `json:"ladders,omitempty"`
	Errors  []string `json:"errors,omitempty"`
}

type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type windowInfo struct {
	WindowS        float64     `json:"window_s"`
	Slices         int         `json:"slices"`
	QuietSlices    int         `json:"quiet_slices"`
	QuietShare     float64     `json:"quiet_share"`
	QuietOps       int         `json:"quiet_ops"`
	TailPercentile float64     `json:"tail_percentile"`
	ProbeMinMS     float64     `json:"probe_min_ms"`
	SetupsS        []float64   `json:"setups_s"`
	QuietSetups    int         `json:"quiet_setups"`
	BuildS         float64     `json:"build_s"`
	ProbesMS       []float64   `json:"probes_ms"`
	SliceRates     []float64   `json:"slice_node_rounds_per_s"`
	SliceCPUs      []float64   `json:"slice_cpu_us_per_node_round"`
	SliceOpsMS     [][]float64 `json:"slice_ops_ms"`
}

func host() hostInfo {
	h := hostInfo{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func main() { os.Exit(run()) }

// run is main with an exit code, so that every deferred clean-up — above all
// killing the serve child — happens on every path out, a failed check
// included.
func run() int {
	var (
		name      = flag.String("workload", "", "workload to run: sim-static, serve-dynamic-lossy, live-channel or live-unix-lossy")
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Int("seconds", 20, "nominal length of the measured window")
		trace     = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: end-to-end metrics")
		selfcheck = flag.Int("selfcheck", 0, "run k interleaved pairs of full runs of this binary and compare the two sides")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench -workload <name> -seed <n> -seconds <s> -trace <0|1> | -selfcheck <k>")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *selfcheck > 0 {
		return selfCheck(ctx, *selfcheck, *seed, *seconds)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	env, err := prepare(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	rep := report{Workload: wl.name, Traced: *trace == 1, Seed: *seed, Seconds: *seconds, Host: host()}
	if rep.Traced {
		err = runTraced(ctx, wl, env, &rep)
	} else {
		err = runEndToEnd(ctx, wl, env, &rep)
	}
	if err != nil {
		// No result line: the run could not measure, which is not the same
		// as measuring a wrong output.
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep.Result.Correct = rep.Result.Failed == 0
	if err := emit(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// runEndToEnd is the untraced run: R timed set-ups, the measured window, then
// the deferred output checks.
func runEndToEnd(ctx context.Context, wl workload, env *environment, rep *report) error {
	inst, setups, err := setUp(ctx, wl, env, rep.Seed)
	if err != nil {
		return err
	}
	defer inst.close()
	nominal := time.Duration(rep.Seconds) * time.Second
	w, err := measure(ctx, inst, setups, nominal, wl.quietFloor)
	if err != nil {
		return err
	}
	sum := w.summarize(1000 * w.wallS)
	for _, err := range inst.verify(ctx) {
		sum.failed++
		rep.Errors = append(rep.Errors, err.Error())
	}
	for _, s := range w.slices {
		for _, op := range s.ops {
			if op.err != nil {
				rep.Errors = append(rep.Errors, op.err.Error())
			}
		}
	}

	rep.Result = result{Attempted: sum.attempted, Failed: sum.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		rep.Result.Metrics[m.name] = metricValue{sum.metrics[m.name], m.unit}
	}
	rep.Window = &windowInfo{
		WindowS: w.wallS, Slices: sum.slices, QuietSlices: sum.quietSlices,
		QuietShare: float64(sum.quietSlices) / float64(sum.slices),
		QuietOps:   sum.quietOps, TailPercentile: sum.tailPercentile, ProbeMinMS: sum.probeMinMS,
		QuietSetups: sum.quietSetups, BuildS: env.buildS, ProbesMS: w.probes,
	}
	for _, s := range setups {
		rep.Window.SetupsS = append(rep.Window.SetupsS, s.seconds)
	}
	for _, s := range w.slices {
		rep.Window.SliceRates = append(rep.Window.SliceRates, float64(s.nodeRounds())/s.wallS)
		rep.Window.SliceCPUs = append(rep.Window.SliceCPUs, s.cpuS*1e6/float64(s.nodeRounds()))
		var opsMS []float64
		for _, op := range s.ops {
			opsMS = append(opsMS, op.latencyMS)
		}
		rep.Window.SliceOpsMS = append(rep.Window.SliceOpsMS, opsMS)
	}
	return nil
}

// emit writes the full report to bench/out/, a table to standard error, and
// the result line — the only thing on standard output — last.
func emit(rep report) error {
	kind := "run"
	if rep.Traced {
		kind = "trace"
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-%s.json", kind, rep.Workload)), doc, 0o644); err != nil {
		return err
	}

	h := rep.Host
	fmt.Fprintf(os.Stderr, "bench: %s %s  seed=%d  GOMAXPROCS=%d nproc=%d %s commit=%s\n",
		kind, rep.Workload, rep.Seed, h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.Commit)
	if w := rep.Window; w != nil {
		fmt.Fprintf(os.Stderr, "  window %.1f s, %d/%d slices quiet (share %.2f), %d quiet ops, tail = p%.1f, fastest probe %.3f ms, %d/%d set-ups quiet, build %.2f s\n",
			w.WindowS, w.QuietSlices, w.Slices, w.QuietShare, w.QuietOps, w.TailPercentile, w.ProbeMinMS, w.QuietSetups, len(w.SetupsS), w.BuildS)
	}
	for _, l := range rep.Ladders {
		l.print(os.Stderr)
	}
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Result.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", name, m.Value, m.Unit)
	}
	tw.Flush() //nolint:errcheck // standard error
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d\n", rep.Result.Attempted, rep.Result.Failed)
	for i, e := range rep.Errors {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(rep.Errors)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "  FAILED:", e)
	}

	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
