package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"truthfulufp"
	"truthfulufp/internal/auction"
	"truthfulufp/internal/scenario"
	"truthfulufp/internal/workload"
)

func newTestServer(t *testing.T) (*httptest.Server, *truthfulufp.Engine) {
	t.Helper()
	eng := truthfulufp.NewEngine(truthfulufp.EngineConfig{Workers: 4})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newHandler(eng, 0.25, 30*time.Second))
	t.Cleanup(ts.Close)
	return ts, eng
}

func testInstance(t *testing.T, seed uint64) *truthfulufp.Instance {
	t.Helper()
	cfg := workload.DefaultUFPConfig()
	cfg.B = 200 // large capacities so SolveUFP's ε/6 threshold admits winners
	inst, err := workload.RandomUFP(workload.NewRNG(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type wireResponse struct {
	Allocation json.RawMessage `json:"allocation"`
	Outcome    json.RawMessage `json:"outcome"`
	CacheHit   bool            `json:"cacheHit"`
	ElapsedMs  float64         `json:"elapsedMs"`
	Error      *wireError      `json:"error"`
}

func solveBody(t *testing.T, inst *truthfulufp.Instance, extra map[string]any) map[string]any {
	t.Helper()
	raw, err := truthfulufp.MarshalInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{"instance": json.RawMessage(raw)}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

// TestServeSolveMatchesDirectCall is the acceptance check: the served
// allocation re-encodes byte-identically to a direct SolveUFP call.
func TestServeSolveMatchesDirectCall(t *testing.T) {
	ts, _ := newTestServer(t)
	inst := testInstance(t, 1)

	status, out := postJSON(t, ts.URL+"/solve", solveBody(t, inst, map[string]any{"eps": 0.25}))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	var resp wireResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	got, err := truthfulufp.UnmarshalAllocation(resp.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := truthfulufp.MarshalAllocation(got)
	if err != nil {
		t.Fatal(err)
	}

	want, err := truthfulufp.SolveUFP(inst, 0.25, &truthfulufp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := truthfulufp.MarshalAllocation(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("served allocation differs from direct call:\n got %s\nwant %s", gotBytes, wantBytes)
	}
	if len(got.Routed) == 0 {
		t.Fatal("vacuous comparison: nothing routed")
	}
}

// TestServeSolveKinds exercises every /solve kind end to end.
func TestServeSolveKinds(t *testing.T) {
	ts, _ := newTestServer(t)
	inst := testInstance(t, 2)
	for _, kind := range []string{"", "ufp/solve", "ufp/bounded", "ufp/repeat", "ufp/sequential", "ufp/greedy"} {
		extra := map[string]any{}
		if kind != "" {
			extra["kind"] = kind
		}
		status, out := postJSON(t, ts.URL+"/solve", solveBody(t, inst, extra))
		if status != http.StatusOK {
			t.Fatalf("kind %q: status %d: %s", kind, status, out)
		}
		var resp wireResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		if _, err := truthfulufp.UnmarshalAllocation(resp.Allocation); err != nil {
			t.Fatalf("kind %q: bad allocation payload: %v", kind, err)
		}
	}
}

// TestServeMechanismMatchesDirectCall checks /mechanism against a direct
// RunUFPMechanism call, byte for byte.
func TestServeMechanismMatchesDirectCall(t *testing.T) {
	ts, _ := newTestServer(t)
	// Small instance: the mechanism re-runs the solver ~60x per winner.
	g := truthfulufp.NewGraph(2)
	g.AddEdge(0, 1, 30)
	inst := &truthfulufp.Instance{G: g, Requests: []truthfulufp.Request{
		{Source: 0, Target: 1, Demand: 1, Value: 2},
		{Source: 0, Target: 1, Demand: 0.5, Value: 1},
	}}

	status, out := postJSON(t, ts.URL+"/mechanism", solveBody(t, inst, map[string]any{"eps": 0.5}))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	var resp wireResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	got, err := truthfulufp.UnmarshalUFPOutcome(resp.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := truthfulufp.MarshalUFPOutcome(got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := truthfulufp.RunUFPMechanism(inst, 0.5, &truthfulufp.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := truthfulufp.MarshalUFPOutcome(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("served outcome differs from direct call:\n got %s\nwant %s", gotBytes, wantBytes)
	}
	if len(want.Payments) == 0 {
		t.Fatal("vacuous comparison: no winners")
	}
}

// TestServeAuction exercises /auction in both modes against direct calls.
func TestServeAuction(t *testing.T) {
	ts, _ := newTestServer(t)
	inst, err := auction.RandomInstance(workload.NewRNG(3), auction.RandomConfig{
		Items: 6, Requests: 20, B: 60, MultSpread: 0.3,
		BundleMin: 1, BundleMax: 3, ValueMin: 0.5, ValueMax: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := truthfulufp.MarshalAuction(inst)
	if err != nil {
		t.Fatal(err)
	}

	status, out := postJSON(t, ts.URL+"/auction", map[string]any{"instance": json.RawMessage(raw)})
	if status != http.StatusOK {
		t.Fatalf("solve mode: status %d: %s", status, out)
	}
	var resp wireResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	got, err := truthfulufp.UnmarshalAuctionAllocation(resp.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	want, err := truthfulufp.SolveMUCA(inst, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, _ := truthfulufp.MarshalAuctionAllocation(got)
	wantBytes, _ := truthfulufp.MarshalAuctionAllocation(want)
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("served auction allocation differs:\n got %s\nwant %s", gotBytes, wantBytes)
	}
	if len(want.Selected) == 0 {
		t.Fatal("vacuous comparison: no winners")
	}

	status, out = postJSON(t, ts.URL+"/auction", map[string]any{
		"instance": json.RawMessage(raw), "mode": "mechanism",
	})
	if status != http.StatusOK {
		t.Fatalf("mechanism mode: status %d: %s", status, out)
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	gotOut, err := truthfulufp.UnmarshalAuctionOutcome(resp.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotOut.Payments) != len(want.Selected) {
		t.Fatalf("payments %d != winners %d", len(gotOut.Payments), len(want.Selected))
	}
}

// TestServeConcurrentRequests fires parallel solve traffic with repeats
// and checks every response plus the healthz counter balance.
func TestServeConcurrentRequests(t *testing.T) {
	ts, engine := newTestServer(t)
	instances := make([]*truthfulufp.Instance, 4)
	for i := range instances {
		instances[i] = testInstance(t, uint64(10+i))
	}
	wantBytes := make([][]byte, len(instances))
	for i, inst := range instances {
		want, err := truthfulufp.SolveUFP(inst, 0.25, &truthfulufp.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if wantBytes[i], err = truthfulufp.MarshalAllocation(want); err != nil {
			t.Fatal(err)
		}
	}

	const requests = 24
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst := instances[i%len(instances)]
			status, out := postJSON(t, ts.URL+"/solve", solveBody(t, inst, nil))
			if status != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d: %s", i, status, out)
				return
			}
			var resp wireResponse
			if err := json.Unmarshal(out, &resp); err != nil {
				errs <- err
				return
			}
			got, err := truthfulufp.UnmarshalAllocation(resp.Allocation)
			if err != nil {
				errs <- err
				return
			}
			gotBytes, err := truthfulufp.MarshalAllocation(got)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(gotBytes, wantBytes[i%len(instances)]) {
				errs <- fmt.Errorf("request %d: allocation differs from direct call", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := engine.Snapshot()
	if snap.Submitted != requests {
		t.Errorf("submitted = %d, want %d", snap.Submitted, requests)
	}
	if snap.Completed+snap.CacheHits+snap.Coalesced != snap.Submitted || snap.Failures != 0 {
		t.Errorf("counters do not balance: %+v", snap)
	}
	if snap.Completed != int64(len(instances)) {
		t.Errorf("executions = %d, want one per distinct instance = %d", snap.Completed, len(instances))
	}
}

// TestServeZeroTimeout verifies timeout 0 means "no timeout", not
// "already expired".
func TestServeZeroTimeout(t *testing.T) {
	eng := truthfulufp.NewEngine(truthfulufp.EngineConfig{Workers: 2})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newHandler(eng, 0.25, 0))
	t.Cleanup(ts.Close)
	status, out := postJSON(t, ts.URL+"/solve", solveBody(t, testInstance(t, 30), nil))
	if status != http.StatusOK {
		t.Fatalf("status %d with zero timeout: %s", status, out)
	}
}

// TestServeHealthz checks the health endpoint's shape.
func TestServeHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Workers != 4 {
		t.Errorf("healthz = %+v", health)
	}
}

// TestServeErrors is the wire-schema gate for the unified error
// envelope: every rejection path answers {"error":{"code","message"}}
// with the documented status and stable code.
func TestServeErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	inst := testInstance(t, 20)

	for _, tc := range []struct {
		name   string
		url    string
		body   any
		status int
		code   string
	}{
		{"bad JSON", "/solve", "{", http.StatusBadRequest, "bad_request"},
		{"trailing garbage", "/solve", "{} {}", http.StatusBadRequest, "bad_request"},
		{"unknown field", "/solve", `{"bogus": 1}`, http.StatusBadRequest, "bad_request"},
		{"missing instance", "/solve", map[string]any{"eps": 0.25}, http.StatusBadRequest, "bad_request"},
		{"unknown kind", "/solve", solveBody(t, inst, map[string]any{"kind": "ufp/nonsense"}), http.StatusBadRequest, "unknown_algorithm"},
		{"auction kind on solve", "/solve", solveBody(t, inst, map[string]any{"kind": "muca/solve"}), http.StatusBadRequest, "bad_request"},
		{"bad eps", "/solve", solveBody(t, inst, map[string]any{"eps": 7.0}), http.StatusUnprocessableEntity, "solve_failed"},
		{"unknown auction mode", "/auction", map[string]any{"mode": "x", "instance": json.RawMessage(`{"multiplicity":[2]}`)}, http.StatusBadRequest, "bad_request"},
		{"missing v1 algorithm", "/v1/solve", solveBody(t, inst, nil), http.StatusBadRequest, "bad_request"},
		{"unknown v1 algorithm", "/v1/solve", solveBody(t, inst, map[string]any{"algorithm": "ufp/imaginary"}), http.StatusBadRequest, "unknown_algorithm"},
		{"missing network", "/v1/networks", map[string]any{"eps": 0.25}, http.StatusBadRequest, "bad_request"},
		{"bad network", "/v1/networks", map[string]any{"network": json.RawMessage(`{"directed":true,"vertices":2,"edges":[{"from":0,"to":9,"capacity":4}]}`)}, http.StatusBadRequest, "bad_request"},
		{"admit on unknown network", "/v1/networks/nope/admit", map[string]any{"source": 0, "target": 1, "demand": 0.5, "value": 1}, http.StatusNotFound, "not_found"},
		{"release on unknown network", "/v1/networks/nope/release", map[string]any{"id": 1}, http.StatusNotFound, "not_found"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var data []byte
			switch b := tc.body.(type) {
			case string:
				data = []byte(b)
			default:
				var err error
				if data, err = json.Marshal(b); err != nil {
					t.Fatal(err)
				}
			}
			resp, err := http.Post(ts.URL+tc.url, "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, out)
			}
			var e wireResponse
			if err := json.Unmarshal(out, &e); err != nil || e.Error == nil {
				t.Fatalf("error body not the envelope: %s", out)
			}
			if e.Error.Code != tc.code || e.Error.Message == "" {
				t.Fatalf("envelope = %+v, want code %q with a message", e.Error, tc.code)
			}
		})
	}

	// Oversized body is rejected with 413 before decoding.
	t.Run("oversized body", func(t *testing.T) {
		huge := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), maxRequestBytes+1024)...)
		huge = append(huge, `"}`...)
		resp, err := http.Post(ts.URL+"/solve", "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
		var e wireResponse
		if err := json.Unmarshal(out, &e); err != nil || e.Error == nil || e.Error.Code != "body_too_large" {
			t.Fatalf("413 body not the envelope with body_too_large: %s", out)
		}
	})

	// Wrong method on a POST endpoint.
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve status %d, want 405", resp.StatusCode)
	}
}

// TestServeScenarioInstance is the ufpgen acceptance check: a scenario
// instance generated and encoded exactly as cmd/ufpgen emits it solves
// over HTTP, both as a plain solve and as the truthful mechanism.
func TestServeScenarioInstance(t *testing.T) {
	ts, _ := newTestServer(t)
	inst, err := scenario.Generate(scenario.Config{Topology: "fattree", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, ts.URL+"/solve", solveBody(t, inst, nil))
	if status != http.StatusOK {
		t.Fatalf("scenario solve: status %d: %s", status, body)
	}
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	alloc, err := truthfulufp.UnmarshalAllocation(resp.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Routed) == 0 {
		t.Fatal("served scenario solve routed nothing")
	}

	auc, err := scenario.GenerateAuction(scenario.Config{Topology: "startrees", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := truthfulufp.MarshalAuction(auc)
	if err != nil {
		t.Fatal(err)
	}
	status, body = postJSON(t, ts.URL+"/auction", map[string]any{"instance": json.RawMessage(raw)})
	if status != http.StatusOK {
		t.Fatalf("scenario auction solve: status %d: %s", status, body)
	}
}

// TestServeV1Algorithms: the catalog endpoint lists every registered
// solver with its kind, matching the registry.
func TestServeV1Algorithms(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Algorithms []struct {
			Name                 string `json:"name"`
			Kind                 string `json:"kind"`
			Mechanism            bool   `json:"mechanism"`
			DefaultMaxIterations int    `json:"defaultMaxIterations"`
			Description          string `json:"description"`
		} `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := truthfulufp.SolverNames()
	if len(body.Algorithms) != len(want) {
		t.Fatalf("listed %d algorithms, registry has %d", len(body.Algorithms), len(want))
	}
	for i, a := range body.Algorithms {
		if a.Name != want[i] {
			t.Fatalf("algorithms[%d] = %q, want %q (sorted)", i, a.Name, want[i])
		}
		s, _ := truthfulufp.LookupSolver(a.Name)
		if a.Kind != string(s.Kind()) || a.Mechanism != s.Kind().IsMechanism() {
			t.Fatalf("algorithms[%d] kind metadata mismatch: %+v", i, a)
		}
		if a.DefaultMaxIterations != truthfulufp.SolverDefaultMaxIterations(s) {
			t.Fatalf("algorithms[%d] defaultMaxIterations = %d, want %d", i, a.DefaultMaxIterations, truthfulufp.SolverDefaultMaxIterations(s))
		}
	}
	// The repeat variants must advertise their pseudo-polynomial guard.
	reported := make(map[string]int)
	for _, a := range body.Algorithms {
		reported[a.Name] = a.DefaultMaxIterations
	}
	if reported["ufp/repeat"] <= 0 || reported["ufp/repeat-bounded"] <= 0 {
		t.Fatalf("repeat variants report no default MaxIterations: %v", reported)
	}
}

// TestServeV1SolveEveryAlgorithm: POST /v1/solve dispatches every
// registered solver by name, and each response re-encodes byte-
// identically to the solver's direct registry call.
func TestServeV1SolveEveryAlgorithm(t *testing.T) {
	ts, _ := newTestServer(t)
	inst := testInstance(t, 11)
	rawUFP, err := truthfulufp.MarshalInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := auction.RandomInstance(workload.NewRNG(4), auction.RandomConfig{
		Items: 6, Requests: 16, B: 60, MultSpread: 0.3,
		BundleMin: 1, BundleMax: 3, ValueMin: 0.5, ValueMax: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rawAuc, err := truthfulufp.MarshalAuction(auc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range truthfulufp.Solvers() {
		raw := rawUFP
		in := truthfulufp.SolverInput{UFP: inst}
		if !s.Kind().IsUFP() {
			raw = rawAuc
			in = truthfulufp.SolverInput{Auction: auc}
		}
		status, out := postJSON(t, ts.URL+"/v1/solve", map[string]any{
			"algorithm": s.Name(), "eps": 0.25, "seed": 9, "maxIterations": 500,
			"instance": json.RawMessage(raw),
		})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", s.Name(), status, out)
		}
		var resp struct {
			Algorithm  string          `json:"algorithm"`
			Allocation json.RawMessage `json:"allocation"`
			Outcome    json.RawMessage `json:"outcome"`
		}
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Algorithm != s.Name() {
			t.Fatalf("%s: response echoes algorithm %q", s.Name(), resp.Algorithm)
		}
		got := resp.Allocation
		if s.Kind().IsMechanism() {
			got = resp.Outcome
			if len(resp.Allocation) > 0 {
				t.Fatalf("%s: mechanism response also carries an allocation", s.Name())
			}
		} else if len(resp.Outcome) > 0 {
			t.Fatalf("%s: allocation response also carries an outcome", s.Name())
		}
		direct, err := s.Solve(context.Background(), in, truthfulufp.SolverParams{
			Eps: 0.25, Seed: 9, MaxIterations: 500,
		})
		if err != nil {
			t.Fatalf("%s: direct: %v", s.Name(), err)
		}
		want, err := truthfulufp.MarshalSolverOutput(direct)
		if err != nil {
			t.Fatal(err)
		}
		var gotC, wantC bytes.Buffer
		if err := json.Compact(&gotC, got); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&wantC, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
			t.Fatalf("%s: served result differs from direct registry call\n got %s\nwant %s",
				s.Name(), gotC.Bytes(), wantC.Bytes())
		}
	}
}

// TestServeV1SolveErrors: missing and unknown algorithm names are
// diagnosed as 400s.
func TestServeV1SolveErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	inst := testInstance(t, 12)
	raw, err := truthfulufp.MarshalInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	status, out := postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"instance": json.RawMessage(raw),
	})
	if status != http.StatusBadRequest {
		t.Fatalf("missing algorithm: status %d: %s", status, out)
	}
	status, out = postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"algorithm": "ufp/imaginary", "instance": json.RawMessage(raw),
	})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d: %s", status, out)
	}
	// Auction algorithm fed a UFP instance: schema mismatch diagnosed.
	status, out = postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"algorithm": "muca/solve", "instance": json.RawMessage(raw),
	})
	if status != http.StatusBadRequest {
		t.Fatalf("schema mismatch: status %d: %s", status, out)
	}
}
