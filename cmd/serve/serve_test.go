package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/fairgossip"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newHandler(options{maxTrials: 10_000}))
	t.Cleanup(srv.Close)
	return srv
}

func postRun(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestRunByName is the basic happy path: schedule a registered scenario.
func TestRunByName(t *testing.T) {
	srv := testServer(t)
	resp, body := postRun(t, srv, `{"name":"baseline","trials":5,"workers":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if rr.Trials != 5 || rr.Successes < 1 || rr.SuccessRate != float64(rr.Successes)/5 {
		t.Fatalf("implausible summary: %s", body)
	}
	if rr.GoodExecutions == nil || rr.MeanRounds <= 0 || rr.MeanMessages <= 0 {
		t.Fatalf("summary missing aggregates: %s", body)
	}
}

// TestRunInlineScenarioRoundTrips is the e2e acceptance pin: an inline
// version-1 scenario document is executed and echoed back in canonical
// form, and that echo decodes to exactly the defaults-applied request.
func TestRunInlineScenarioRoundTrips(t *testing.T) {
	srv := testServer(t)
	inline := fairgossip.Scenario{
		N: 64, Colors: 2, Seed: 5,
		Fault: fairgossip.FaultModel{Kind: fairgossip.FaultPermanent, Alpha: 0.25, Drop: 0.02},
	}
	doc, err := fairgossip.Encode(inline)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postRun(t, srv, `{"scenario":`+string(doc)+`,"trials":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	got, err := fairgossip.Decode(rr.Scenario)
	if err != nil {
		t.Fatalf("response scenario does not decode: %v\n%s", err, rr.Scenario)
	}
	if want := inline.WithDefaults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario did not round-trip:\ngot  %+v\nwant %+v", got, want)
	}
	if rr.Trials != 4 {
		t.Fatalf("ran %d trials, want 4", rr.Trials)
	}
}

// TestRunInlineDynamicScenario runs a dynamic-topology scenario end to end
// through the HTTP surface: the raw version-1 document (with the additive
// "dynamics" field) is accepted, the batch executes deterministically, and
// the canonical echo carries the graph process so the run can be replayed.
func TestRunInlineDynamicScenario(t *testing.T) {
	srv := testServer(t)
	req := `{"scenario":{"version":1,"n":48,"seed":7,` +
		`"dynamics":{"kind":"edge-markovian","birth":0.01,"death":0.03}},"trials":6,"workers":2}`
	resp, body := postRun(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Trials != 6 {
		t.Fatalf("ran %d trials, want 6", rr.Trials)
	}
	got, err := fairgossip.Decode(rr.Scenario)
	if err != nil {
		t.Fatalf("response scenario does not decode: %v\n%s", err, rr.Scenario)
	}
	want := fairgossip.Dynamics{Kind: fairgossip.DynamicsEdgeMarkovian, Birth: 0.01, Death: 0.03}
	if got.Dynamics != want {
		t.Fatalf("echoed scenario lost the graph process: %+v", got.Dynamics)
	}
	// Same request again: dynamic runs derive the evolution from trial seeds,
	// so the whole response body (modulo timing) must be reproducible.
	resp2, body2 := postRun(t, srv, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d", resp2.StatusCode)
	}
	var rr2 runResponse
	if err := json.Unmarshal(body2, &rr2); err != nil {
		t.Fatal(err)
	}
	rr.ElapsedMS, rr2.ElapsedMS = 0, 0
	if !reflect.DeepEqual(rr, rr2) {
		t.Fatalf("dynamic batch not reproducible over HTTP:\nfirst  %+v\nsecond %+v", rr, rr2)
	}
}

// TestRunInlineProtocolScenario runs a protocol-variant scenario end to end
// through the HTTP surface: the raw version-1 document (with the additive
// "protocol" field) is accepted, the batch executes deterministically, and
// the canonical echo carries the variant so the run can be replayed.
func TestRunInlineProtocolScenario(t *testing.T) {
	srv := testServer(t)
	req := `{"scenario":{"version":1,"n":48,"seed":9,"fault":{"drop":0.05},` +
		`"protocol":{"variant":"relaxed","min_votes":12}},"trials":6,"workers":2}`
	resp, body := postRun(t, srv, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Trials != 6 {
		t.Fatalf("ran %d trials, want 6", rr.Trials)
	}
	got, err := fairgossip.Decode(rr.Scenario)
	if err != nil {
		t.Fatalf("response scenario does not decode: %v\n%s", err, rr.Scenario)
	}
	want := fairgossip.Protocol{Variant: fairgossip.ProtocolRelaxed, MinVotes: 12}
	if got.Protocol != want {
		t.Fatalf("echoed scenario lost the protocol variant: %+v", got.Protocol)
	}
	// Same request again: the whole response body (modulo timing) must be
	// reproducible.
	resp2, body2 := postRun(t, srv, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d", resp2.StatusCode)
	}
	var rr2 runResponse
	if err := json.Unmarshal(body2, &rr2); err != nil {
		t.Fatal(err)
	}
	rr.ElapsedMS, rr2.ElapsedMS = 0, 0
	if !reflect.DeepEqual(rr, rr2) {
		t.Fatalf("protocol-variant batch not reproducible over HTTP:\nfirst  %+v\nsecond %+v", rr, rr2)
	}
}

// TestRunSeedOverride pins the per-request override and determinism: the
// same request twice is byte-identical, a different seed may differ.
func TestRunSeedOverride(t *testing.T) {
	srv := testServer(t)
	_, a := postRun(t, srv, `{"name":"baseline","trials":3,"seed":42}`)
	_, b := postRun(t, srv, `{"name":"baseline","trials":3,"seed":42}`)
	a2, b2 := stripElapsed(t, a), stripElapsed(t, b)
	if !reflect.DeepEqual(a2, b2) {
		t.Fatalf("identical requests diverged:\n%s\n%s", a, b)
	}
	var rr runResponse
	if err := json.Unmarshal(a, &rr); err != nil {
		t.Fatal(err)
	}
	got, err := fairgossip.Decode(rr.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 {
		t.Fatalf("seed override ignored: ran seed %d", got.Seed)
	}
}

// TestRunClampsWorkers pins the worker bound: a request asking for far more
// workers than the server has cores runs, on at most GOMAXPROCS of them,
// and the echoed canonical scenario says so.
func TestRunClampsWorkers(t *testing.T) {
	srv := testServer(t)
	resp, body := postRun(t, srv, `{"name":"baseline","trials":4,"workers":1000000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	got, err := fairgossip.Decode(rr.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if max := runtime.GOMAXPROCS(0); got.Workers < 1 || got.Workers > max {
		t.Fatalf("ran with workers = %d, want 1..GOMAXPROCS = %d", got.Workers, max)
	}
}

func stripElapsed(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "elapsed_ms")
	return m
}

// TestRunErrors pins the error taxonomy → status code mapping.
func TestRunErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name   string
		body   string
		status int
		want   string
	}{
		{"unknown name", `{"name":"no-such","trials":3}`, http.StatusNotFound, "unknown scenario"},
		{"invalid inline", `{"scenario":{"version":1,"n":1,"seed":1},"trials":3}`, http.StatusBadRequest, "invalid scenario"},
		{"unversioned inline", `{"scenario":{"n":64,"seed":1},"trials":3}`, http.StatusBadRequest, "version"},
		{"both name and scenario", `{"name":"baseline","scenario":{"version":1,"n":64,"seed":1},"trials":3}`, http.StatusBadRequest, "not both"},
		{"neither", `{"trials":3}`, http.StatusBadRequest, "needs"},
		{"no trials", `{"name":"baseline"}`, http.StatusBadRequest, "trials"},
		{"trials over cap", `{"name":"baseline","trials":999999999}`, http.StatusBadRequest, "cap"},
		{"unknown request field", `{"name":"baseline","trials":3,"bogus":1}`, http.StatusBadRequest, "bogus"},
		{"trailing document", `{"name":"baseline","trials":3}{"name":"baseline","trials":3}`, http.StatusBadRequest, "trailing data"},
		{"trailing garbage", `{"name":"baseline","trials":3} xyz`, http.StatusBadRequest, "trailing data"},
		{"negative workers override", `{"name":"baseline","trials":3,"workers":-1}`, http.StatusBadRequest, "workers"},
		{"negative inline workers", `{"scenario":{"version":1,"n":64,"seed":1,"workers":-1},"trials":3}`, http.StatusBadRequest, "workers"},
	}
	for _, tc := range cases {
		resp, body := postRun(t, srv, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %s does not mention %q", tc.name, body, tc.want)
		}
	}
}

// TestShutdownMidStream pins the graceful-shutdown half of the cancellation
// story: when the server's base context dies while a batch is streaming, the
// still-connected client gets an honest 503 with a JSON error — not a silent
// hang-up, which is reserved for clients that already left.
func TestShutdownMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := httptest.NewUnstartedServer(newHandler(options{maxTrials: 10_000, baseCtx: ctx}))
	srv.Config.BaseContext = func(net.Listener) context.Context { return ctx }
	srv.Start()
	defer srv.Close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel() // the signal handler firing mid-batch
	}()
	resp, body := postRun(t, srv, `{"name":"baseline","trials":10000}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("503 body is not a JSON error: %v (%s)", err, body)
	}
	if !strings.Contains(e.Error, "shutting down") {
		t.Fatalf("error %q does not mention shutdown", e.Error)
	}
}

// TestScenarioList pins GET /v1/scenarios: every registered scenario comes
// back as a decodable canonical document.
func TestScenarioList(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"baseline", "churn", "lossy-links", "edge-markovian", "rewire-ring"} {
		doc, ok := out[name]
		if !ok {
			t.Fatalf("scenario list misses %q", name)
		}
		if _, err := fairgossip.Decode(doc); err != nil {
			t.Errorf("%s: listed document does not decode: %v", name, err)
		}
	}
}
