package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"truthfulufp"
)

// syncBuffer is a locked log sink: the httptest server serves requests
// from its own goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// newInstrumentedServer builds a server with a JSON logger into buf
// and its own registry, returning the test server and the server
// struct (for the registry and the draining flag).
func newInstrumentedServer(t *testing.T, buf *syncBuffer) (*httptest.Server, *server) {
	t.Helper()
	eng := truthfulufp.NewEngine(truthfulufp.EngineConfig{Workers: 2})
	t.Cleanup(eng.Close)
	logger := slog.New(slog.NewJSONHandler(buf, nil))
	s := newServer(eng, 0.25, 30*time.Second, truthfulufp.NewMetricsRegistry(), logger)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestMiddlewareStatusClasses checks that the middleware labels
// requests by route pattern and status class — including the
// deprecated aliases, which must flow through the same chain with
// deprecated="true".
func TestMiddlewareStatusClasses(t *testing.T) {
	var buf syncBuffer
	ts, _ := newInstrumentedServer(t, &buf)

	if resp, _ := get(t, ts.URL+"/v1/algorithms"); resp.StatusCode != http.StatusOK {
		t.Fatalf("algorithms = %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/networks/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown network = %d", resp.StatusCode)
	}
	if status, _ := postJSON(t, ts.URL+"/solve", map[string]any{}); status != http.StatusBadRequest {
		t.Fatalf("legacy empty solve = %d", status)
	}

	_, body := get(t, ts.URL+"/metrics")
	exposition := string(body)
	for _, want := range []string{
		`ufp_http_requests_total{route="/v1/algorithms",code="2xx",deprecated="false"} 1`,
		`ufp_http_requests_total{route="/v1/networks/{id}",code="4xx",deprecated="false"} 1`,
		`ufp_http_requests_total{route="/solve",code="4xx",deprecated="true"} 1`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
	// Per-route latency histograms exist for the routes that served.
	if !strings.Contains(exposition, `ufp_http_request_duration_seconds_count{route="/v1/algorithms"} 1`) {
		t.Errorf("exposition is missing the /v1/algorithms latency count:\n%s", exposition)
	}
}

// metricFamilies is the exact family set a fresh server exports. Adding
// or dropping a family fails TestMetricsEndpoint until this list changes
// with it.
var metricFamilies = []string{
	"ufp_engine_cache_entries",
	"ufp_engine_cache_hits_total",
	"ufp_engine_cache_misses_total",
	"ufp_engine_jobs_cancelled_total",
	"ufp_engine_jobs_coalesced_total",
	"ufp_engine_jobs_completed_total",
	"ufp_engine_jobs_failed_total",
	"ufp_engine_jobs_shed_total",
	"ufp_engine_jobs_submitted_total",
	"ufp_engine_queue_capacity",
	"ufp_engine_queue_depth",
	"ufp_engine_solve_duration_seconds",
	"ufp_engine_worker_utilization",
	"ufp_engine_workers",
	"ufp_engine_workers_busy",
	"ufp_http_in_flight",
	"ufp_http_request_duration_seconds",
	"ufp_http_requests_total",
	"ufp_pathcache_dirty_ratio",
	"ufp_pathcache_landmark_registry_lookups_total",
	"ufp_pathcache_landmark_violations",
	"ufp_pathcache_oracle_prune_ratio",
	"ufp_pathcache_oracle_searches",
	"ufp_pathcache_path_hits",
	"ufp_pathcache_path_misses",
	"ufp_pathcache_policy_decisions",
	"ufp_pathcache_refreshes",
	"ufp_pathcache_tree_recomputed",
	"ufp_pathcache_tree_reused",
	"ufp_route_forwarded_total",
	"ufp_session_admit_duration_seconds",
	"ufp_session_admits_total",
	"ufp_session_closed_total",
	"ufp_session_created_total",
	"ufp_session_evictions_total",
	"ufp_session_live",
	"ufp_session_quote_duration_seconds",
	"ufp_session_quotes_total",
	"ufp_session_rejects_total",
	"ufp_session_releases_total",
}

// TestMetricsEndpoint checks content type, that the exposition's
// family set is exactly metricFamilies, and that it has well-formed
// series.
func TestMetricsEndpoint(t *testing.T) {
	var buf syncBuffer
	ts, _ := newInstrumentedServer(t, &buf)
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != truthfulufp.MetricsTextContentType {
		t.Errorf("content type = %q, want %q", ct, truthfulufp.MetricsTextContentType)
	}
	exposition := string(body)
	var families []string
	for _, line := range strings.Split(exposition, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families = append(families, f[2])
		}
	}
	slices.Sort(families)
	if !slices.Equal(families, metricFamilies) {
		t.Errorf("exposition families = %q\nwant %q", families, metricFamilies)
	}
	// ≥ 15 distinct series (the acceptance floor), counting sample lines.
	series := 0
	for _, line := range strings.Split(exposition, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	if series < 15 {
		t.Errorf("exposition has %d series, want >= 15:\n%s", series, exposition)
	}
}

// TestRequestIDPropagation checks the id pipeline: adopted from the
// inbound header, echoed on the response, embedded in the error
// envelope, and present in the structured log line.
func TestRequestIDPropagation(t *testing.T) {
	var buf syncBuffer
	ts, _ := newInstrumentedServer(t, &buf)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/networks/ghost", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "rid-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "rid-test-42" {
		t.Errorf("response id = %q, want the inbound id", got)
	}
	var envelope struct {
		Error struct {
			Code      string `json:"code"`
			RequestID string `json:"requestId"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("decoding envelope: %v (%s)", err, body)
	}
	if envelope.Error.RequestID != "rid-test-42" {
		t.Errorf("envelope requestId = %q, want rid-test-42", envelope.Error.RequestID)
	}
	var logged struct {
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		Route     string `json:"route"`
		Status    int    `json:"status"`
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if err := json.Unmarshal([]byte(line), &logged); err == nil &&
			logged.Msg == "request" && logged.RequestID == "rid-test-42" {
			found = true
			if logged.Route != "/v1/networks/{id}" || logged.Status != http.StatusNotFound {
				t.Errorf("log line route/status = %q/%d", logged.Route, logged.Status)
			}
		}
	}
	if !found {
		t.Errorf("no request log line with request_id=rid-test-42:\n%s", buf.String())
	}

	// Without an inbound id a fresh hex id is generated.
	resp2, _ := get(t, ts.URL+"/v1/healthz")
	if id := resp2.Header.Get("X-Request-Id"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated id = %q, want 16 hex chars", id)
	}
}

// TestReadyzDraining checks the liveness/readiness split: healthz
// stays 200 while readyz flips to 503 with the draining flag.
func TestReadyzDraining(t *testing.T) {
	var buf syncBuffer
	ts, s := newInstrumentedServer(t, &buf)
	if resp, _ := get(t, ts.URL+"/v1/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while serving = %d", resp.StatusCode)
	}
	s.draining.Store(true)
	resp, body := get(t, ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", resp.StatusCode)
	}
	var envelope struct {
		Error wireError `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != codeUnavailable {
		t.Errorf("draining envelope = %s (err %v)", body, err)
	}
	if resp, _ := get(t, ts.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining = %d (liveness must hold)", resp.StatusCode)
	}
}

// TestServerTimingHeader checks that v1 routes carry Server-Timing and
// legacy aliases do not.
func TestServerTimingHeader(t *testing.T) {
	var buf syncBuffer
	ts, _ := newInstrumentedServer(t, &buf)
	resp, _ := get(t, ts.URL+"/v1/algorithms")
	if st := resp.Header.Get("Server-Timing"); !strings.HasPrefix(st, "app;dur=") {
		t.Errorf("v1 Server-Timing = %q", st)
	}
	status, _ := postJSON(t, ts.URL+"/solve", map[string]any{})
	if status != http.StatusBadRequest {
		t.Fatalf("legacy solve = %d", status)
	}
	resp2, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if st := resp2.Header.Get("Server-Timing"); st != "" {
		t.Errorf("legacy Server-Timing = %q, want none", st)
	}
}
