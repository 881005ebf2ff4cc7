//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/fairgossip"
)

// outDir is the only place the benchmark writes: the serve binary it builds,
// the trace files, and each run's full report. It is git-ignored.
const outDir = "bench/out"

// environment is what a run prepares once, before any workload is set up.
type environment struct {
	serveBin string
	buildS   float64
}

// prepare creates the output directory and builds the real cmd/serve binary.
// Build time is reported as host.build_s and is not part of any set-up: a
// set-up is what a user of the built system pays to get a ready server.
func prepare(ctx context.Context) (*environment, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	env := &environment{serveBin: filepath.Join(outDir, "serve")}
	start := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", env.serveBin, "./cmd/serve")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/serve: %v\n%s", err, out)
	}
	env.buildS = time.Since(start).Seconds()
	return env, nil
}

// serveChild is one running cmd/serve process on a loopback port.
type serveChild struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	hc   *http.Client
}

// startServe picks a free loopback port, starts the binary on it, and waits
// until /healthz answers. The child is killed on every failure path.
func startServe(ctx context.Context, bin string) (*serveChild, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "-addr", addr)
	// Its own process group: a Ctrl-C aimed at the benchmark must reach the
	// child through stop(), after the in-flight request has been accounted.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &serveChild{
		cmd:  cmd,
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.healthz(ctx); err == nil {
			return c, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			c.stop()
			return nil, fmt.Errorf("serve on %s never became healthy", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *serveChild) healthz(ctx context.Context) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	return time.Since(start), nil
}

// stop kills the child and waits for it, which also frees its port.
func (c *serveChild) stop() {
	c.hc.CloseIdleConnections()
	c.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	c.cmd.Wait()         //nolint:errcheck // it was killed; the status says so
}

// --- serve-dynamic-lossy ---------------------------------------------------

const (
	serveN       = 256
	serveDegree  = 32
	serveDeath   = 0.1
	serveDrop    = 0.01
	serveTrials  = 2
	serveClients = 2
	// serveReplayEvery: every that-many-th request is replayed in-process
	// after the window and must give the identical summary.
	serveReplayEvery = 16
)

// serveScenario is the inline document of one request: edge-Markovian
// dynamics at stationary degree serveDegree, so topo.Advance runs every round
// and at this death rate is most of the work, plus per-message loss. Most
// such runs end in ⊥ — the verify-failure path is part of the workload.
func serveScenario(seed uint64) fairgossip.Scenario {
	pi := float64(serveDegree) / float64(serveN-1)
	return fairgossip.Scenario{
		N: serveN, Colors: 2, Seed: seed, Workers: 1,
		Dynamics: fairgossip.Dynamics{
			Kind:  fairgossip.DynamicsEdgeMarkovian,
			Birth: serveDeath * pi / (1 - pi),
			Death: serveDeath,
		},
		Fault: fairgossip.FaultModel{Drop: serveDrop},
	}
}

// runResponse mirrors the fields of cmd/serve's reply the checks read.
type runResponse struct {
	Scenario     json.RawMessage `json:"scenario"`
	Trials       int             `json:"trials"`
	Successes    int             `json:"successes"`
	MinRounds    int             `json:"min_rounds"`
	MaxRounds    int             `json:"max_rounds"`
	MeanRounds   float64         `json:"mean_rounds"`
	MeanMessages float64         `json:"mean_messages"`
	TotalBits    int64           `json:"total_bits"`
	ElapsedMS    int64           `json:"elapsed_ms"`
}

// stableBytes is the size of a response with the digits of elapsed_ms — the
// one field that is a measurement, not an output — taken out, so that it
// repeats exactly for a fixed seed.
func (r runResponse) stableBytes(body []byte) int {
	return len(body) - len(strconv.FormatInt(r.ElapsedMS, 10))
}

func runRequestBody(sc fairgossip.Scenario) ([]byte, error) {
	doc, err := fairgossip.Encode(sc)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Scenario json.RawMessage `json:"scenario"`
		Trials   int             `json:"trials"`
	}{doc, serveTrials})
}

// post sends one run request and returns the status and the raw body.
func (c *serveChild) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// checkRunResponse is the per-request output check: trials echoed, rounds
// within the protocol's bound, and the echoed scenario decoding to the
// request's defaults-applied form.
func checkRunResponse(sc fairgossip.Scenario, rounds int, body []byte) (runResponse, error) {
	var resp runResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("response: %w", err)
	}
	if resp.Trials != serveTrials {
		return resp, fmt.Errorf("asked for %d trials, response says %d", serveTrials, resp.Trials)
	}
	if resp.MinRounds < 1 || resp.MaxRounds > rounds || resp.MinRounds > resp.MaxRounds {
		return resp, fmt.Errorf("rounds [%d, %d], bound %d", resp.MinRounds, resp.MaxRounds, rounds)
	}
	echoed, err := fairgossip.Decode(resp.Scenario)
	if err != nil {
		return resp, fmt.Errorf("echoed scenario: %w", err)
	}
	if echoed != sc.WithDefaults() {
		return resp, fmt.Errorf("echoed scenario %+v, sent %+v", echoed, sc.WithDefaults())
	}
	return resp, nil
}

// replayInProcess does a request's work without the server: the same
// NewRunner + Stream the handler runs.
func replayInProcess(ctx context.Context, sc fairgossip.Scenario) (fairgossip.Summary, error) {
	var sum fairgossip.Summary
	r, err := fairgossip.NewRunner(sc)
	if err != nil {
		return sum, err
	}
	err = r.Stream(ctx, fairgossip.StreamOptions{Trials: serveTrials}, func(_ int, res fairgossip.Result) { sum.Add(res) })
	return sum, err
}

func (r runResponse) matches(sum fairgossip.Summary) bool {
	return r.Successes == sum.Successes && r.MinRounds == sum.MinRounds && r.MaxRounds == sum.MaxRounds &&
		r.MeanRounds == sum.MeanRounds() && r.MeanMessages == sum.MeanMessages() && r.TotalBits == sum.TotalBits
}

// serveDynamicLossy drives the child with serveClients closed-loop clients,
// issued as waves so that a probe can run between waves with the server idle.
type serveDynamicLossy struct {
	child  *serveChild
	seed   uint64
	rounds int // the protocol's round bound at serveN
	done   []servedRequest
	non2xx int
}

type servedRequest struct {
	i    int
	body []byte
}

func newServeDynamicLossy(ctx context.Context, env *environment, seed uint64) (instance, error) {
	r, err := fairgossip.NewRunner(serveScenario(seed))
	if err != nil {
		return nil, err
	}
	child, err := startServe(ctx, env.serveBin)
	if err != nil {
		return nil, err
	}
	return &serveDynamicLossy{child: child, seed: seed, rounds: r.Params().Rounds}, nil
}

// op is one wave: every client sends one request and the wave ends when the
// last reply is in. Request k of the run has seed opSeed(seed, k).
func (s *serveDynamicLossy) op(ctx context.Context, wave int) []opResult {
	out := make([]opResult, serveClients)
	bodies := make([][]byte, serveClients)
	refused := make([]bool, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body, err := runRequestBody(serveScenario(opSeed(s.seed, wave*serveClients+c)))
			if err != nil {
				out[c].err = err
				return
			}
			start := time.Now()
			status, data, err := s.child.post(ctx, body)
			out[c].latencyMS = ms(time.Since(start))
			switch {
			case err != nil:
				out[c].err = err
			case status != http.StatusOK:
				out[c].err = fmt.Errorf("HTTP %d: %s", status, data)
				refused[c] = true
			default:
				bodies[c] = data
			}
		}(c)
	}
	wg.Wait()
	s.non2xx += countTrue(refused)
	for c, body := range bodies {
		if body == nil {
			continue
		}
		// The node-rounds of a request are needed now, for the slice's
		// throughput; everything else about the body is checked in verify.
		var resp runResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			out[c].err = err
			continue
		}
		out[c].nodeRounds = int64(resp.MeanRounds*float64(resp.Trials)+0.5) * serveN
		s.done = append(s.done, servedRequest{i: wave*serveClients + c, body: body})
	}
	return out
}

func (s *serveDynamicLossy) pid() int { return s.child.cmd.Process.Pid }

func (s *serveDynamicLossy) verify(ctx context.Context) []error {
	var errs []error
	for _, req := range s.done {
		sc := serveScenario(opSeed(s.seed, req.i))
		resp, err := checkRunResponse(sc, s.rounds, req.body)
		if err == nil && req.i%serveReplayEvery == 0 {
			var sum fairgossip.Summary
			if sum, err = replayInProcess(ctx, sc); err == nil && !resp.matches(sum) {
				err = fmt.Errorf("served %+v, in-process %+v", resp, sum)
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: %w", req.i, err))
		}
	}
	s.done = s.done[:0]
	return errs
}

func (s *serveDynamicLossy) close() { s.child.stop() }
