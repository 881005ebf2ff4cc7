package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/fairgossip"
)

// options configures the handler independently of the process flags, so
// tests can build one directly.
type options struct {
	// maxTrials caps the per-request trial count; 0 means 1e6.
	maxTrials int
	// baseCtx is the server's lifetime context (the signal context in main);
	// its cancellation means "server shutting down", which the handler
	// distinguishes from "client went away" when a streamed batch dies. nil
	// means no server-side shutdown signal.
	baseCtx context.Context
}

// runRequest is the POST /v1/runs body. Exactly one of Name and Scenario
// selects the setting; Seed and Workers optionally override it per request.
type runRequest struct {
	// Name selects a registered scenario.
	Name string `json:"name,omitempty"`
	// Scenario is an inline version-1 scenario document.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Trials is the Monte-Carlo batch size (required, ≥ 1).
	Trials int `json:"trials"`
	// Seed optionally overrides the scenario's master seed.
	Seed *uint64 `json:"seed,omitempty"`
	// Workers optionally overrides the trial-level parallelism.
	Workers *int `json:"workers,omitempty"`
}

// runResponse is the aggregate summary of one scheduled batch. Scenario is
// the canonical (defaults-applied, versioned) wire form of what actually
// ran — clients can Decode it and replay the exact experiment.
type runResponse struct {
	Scenario       json.RawMessage `json:"scenario"`
	Trials         int             `json:"trials"`
	Successes      int             `json:"successes"`
	SuccessRate    float64         `json:"success_rate"`
	GoodExecutions *int            `json:"good_executions,omitempty"`
	GoodRate       *float64        `json:"good_rate,omitempty"`
	CoalitionWins  *int            `json:"coalition_wins,omitempty"`
	MinRounds      int             `json:"min_rounds"`
	MaxRounds      int             `json:"max_rounds"`
	MeanRounds     float64         `json:"mean_rounds"`
	MeanMessages   float64         `json:"mean_messages"`
	TotalBits      int64           `json:"total_bits"`
	ElapsedMS      int64           `json:"elapsed_ms"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

func newHandler(opts options) http.Handler {
	if opts.maxTrials <= 0 {
		opts.maxTrials = 1_000_000
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/runs", opts.handleRuns)
	mux.HandleFunc("/v1/scenarios", opts.handleScenarios)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleRuns schedules one Monte-Carlo batch and reports its aggregate.
func (o options) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a run request to /v1/runs")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		if maxErr := new(http.MaxBytesError); errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req runRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	// Reject trailing data after the document — same contract as
	// fairgossip.Decode: concatenated or garbage-suffixed bodies are errors,
	// not silently half-read requests.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad request: trailing data after run request")
		return
	}

	sc, status, err := o.resolveScenario(req)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	// Each worker holds its own pool of n agents, so an unchecked worker
	// count would let one request make the server build as many pools as a
	// stream chunk has trials. Results do not depend on it; clamp it to the
	// cores there are, before the runner is built, so the echoed scenario
	// shows what actually ran.
	if sc.Workers < 0 {
		writeError(w, http.StatusBadRequest, "workers must be >= 0 (0 = one per core)")
		return
	}
	sc.Workers = min(sc.Workers, runtime.GOMAXPROCS(0))
	switch {
	case req.Trials < 1:
		writeError(w, http.StatusBadRequest, "trials must be >= 1")
		return
	case req.Trials > o.maxTrials:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("trials %d exceeds this server's cap of %d", req.Trials, o.maxTrials))
		return
	}

	runner, err := fairgossip.NewRunner(sc)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	canonical, err := fairgossip.Encode(runner.Scenario())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	// The request context drives the batch: a client that disconnects (or a
	// server that shuts down) cancels the stream promptly mid-chunk.
	start := time.Now()
	var sum fairgossip.Summary
	err = runner.Stream(r.Context(), fairgossip.StreamOptions{Trials: req.Trials},
		func(_ int, res fairgossip.Result) { sum.Add(res) })
	if err != nil {
		// Both cancellations surface as the same stream error; tell them
		// apart by who died. The server's own shutdown deserves an honest
		// 503 while the response can still be written — only when the client
		// itself is gone is silence right, since nobody is listening.
		if o.baseCtx != nil && o.baseCtx.Err() != nil {
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		if r.Context().Err() != nil {
			return // client is gone; nobody is listening for the error
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	resp := runResponse{
		Scenario:     canonical,
		Trials:       sum.Trials,
		Successes:    sum.Successes,
		SuccessRate:  sum.SuccessRate(),
		MinRounds:    sum.MinRounds,
		MaxRounds:    sum.MaxRounds,
		MeanRounds:   sum.MeanRounds(),
		MeanMessages: sum.MeanMessages(),
		TotalBits:    sum.TotalBits,
		ElapsedMS:    time.Since(start).Milliseconds(),
	}
	if sum.HasGood {
		good, rate := sum.GoodExecutions, sum.GoodRate()
		resp.GoodExecutions, resp.GoodRate = &good, &rate
	}
	if sc.Coalition > 0 {
		wins := sum.CoalitionWins
		resp.CoalitionWins = &wins
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveScenario turns a request into a concrete scenario, with the HTTP
// status its failure maps to.
func (o options) resolveScenario(req runRequest) (fairgossip.Scenario, int, error) {
	var sc fairgossip.Scenario
	switch {
	case req.Name != "" && len(req.Scenario) > 0:
		return sc, http.StatusBadRequest, errors.New(`give either "name" or "scenario", not both`)
	case req.Name != "":
		s, err := fairgossip.Lookup(req.Name)
		if err != nil {
			return sc, http.StatusNotFound, err
		}
		sc = s
	case len(req.Scenario) > 0:
		s, err := fairgossip.Decode(req.Scenario)
		if err != nil {
			return sc, http.StatusBadRequest, err
		}
		sc = s
	default:
		return sc, http.StatusBadRequest, errors.New(`a run request needs a "name" or an inline "scenario"`)
	}
	if req.Seed != nil {
		sc.Seed = *req.Seed
	}
	if req.Workers != nil {
		sc.Workers = *req.Workers
	}
	return sc, 0, nil
}

// handleScenarios lists the registry in canonical wire form, keyed by name.
func (o options) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/scenarios")
		return
	}
	out := make(map[string]json.RawMessage, len(fairgossip.Names()))
	for _, name := range fairgossip.Names() {
		sc, err := fairgossip.Lookup(name)
		if err != nil {
			continue // raced with a concurrent (test) registration; skip
		}
		doc, err := fairgossip.Encode(sc)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		out[name] = doc
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a dead client
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
