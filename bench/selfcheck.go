//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (the default "exclusive" method), so
// that the spread printed here is the spread the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s), median(s)
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// selfCheck is the A/A test: k interleaved pairs of full runs of this same
// binary per workload (A B A B …, every run on its own seed, as a driver
// would), then each side's median and quartiles per metric. Two sides of the
// same code must agree within each metric's bound and each side's spread
// must stay within it; when they do not, the benchmark — or the host — is
// too noisy to judge a change by. It is also the tool for telling noise from
// signal later: a difference between two commits smaller than what this
// prints is not a difference.
func selfCheck(ctx context.Context, k int, seed uint64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1\tA median\tA q3\tA spread\tB q1\tB median\tB q3\tB spread\tmedians differ\tbound\t")
	for _, wl := range workloads {
		sides := [2]map[string][]float64{{}, {}}
		for run := 0; run < 2*k; run++ {
			cmd := exec.CommandContext(ctx, self,
				"-workload", wl.name, "-seed", strconv.FormatUint(seed+uint64(run), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck run %d of %s: %v\n", run, wl.name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck run %d of %s: %v\n", run, wl.name, err)
				return 1
			}
			for name, v := range res.Metrics {
				sides[run%2][name] = append(sides[run%2][name], v.Value)
			}
		}
		for _, spec := range endToEnd {
			a, b := sides[0][spec.name], sides[1][spec.name]
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			differ := math.Abs(amed-bmed) / math.Min(amed, bmed)
			verdict := ""
			if differ > spec.bound || spread(a) > spec.bound || spread(b) > spec.bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.5g\t%.1f%%\t%.5g\t%.5g\t%.5g\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, spec.name, spec.unit, aq1, amed, aq3, 100*spread(a), bq1, bmed, bq3, 100*spread(b), 100*differ, 100*spec.bound, verdict)
		}
	}
	tw.Flush() //nolint:errcheck // standard output
	if bad > 0 {
		fmt.Printf("selfcheck: %d of %d metric × workload pairs exceed their bound\n", bad, len(workloads)*len(endToEnd))
		return 1
	}
	fmt.Println("selfcheck: every metric on every workload agrees with itself within its bound")
	return 0
}
