package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"truthfulufp"
	"truthfulufp/internal/scenario"
)

// wireNetwork mirrors the networkResponse JSON.
type wireNetwork struct {
	Network struct {
		ID             string  `json:"id"`
		Vertices       int     `json:"vertices"`
		Edges          int     `json:"edges"`
		Eps            float64 `json:"eps"`
		B              float64 `json:"b"`
		Admitted       int     `json:"admitted"`
		Value          float64 `json:"value"`
		Admits         int64   `json:"admits"`
		Rejects        int64   `json:"rejects"`
		Releases       int64   `json:"releases"`
		PathRecomputed int64   `json:"pathRecomputed"`
		PathReused     int64   `json:"pathReused"`
	} `json:"network"`
	Ledger []wireAdmitted `json:"ledger"`
}

type wireAdmitted struct {
	ID     int64   `json:"id"`
	Source int     `json:"source"`
	Target int     `json:"target"`
	Demand float64 `json:"demand"`
	Value  float64 `json:"value"`
	Price  float64 `json:"price"`
	Path   []int   `json:"path"`
}

// wireDecision mirrors the decisionResponse JSON. Price is a pointer:
// null when no path exists.
type wireDecision struct {
	Admitted  bool     `json:"admitted"`
	ID        int64    `json:"id"`
	Reason    string   `json:"reason"`
	Price     *float64 `json:"price"`
	Path      []int    `json:"path"`
	ElapsedMs float64  `json:"elapsedMs"`
}

// registerNetwork registers g over HTTP and returns the session id.
func registerNetwork(t *testing.T, ts *httptest.Server, g *truthfulufp.Graph, eps float64) string {
	t.Helper()
	raw, err := truthfulufp.MarshalNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{"network": json.RawMessage(raw)}
	if eps > 0 {
		body["eps"] = eps
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/networks", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, out)
	}
	var nw wireNetwork
	if err := json.Unmarshal(out, &nw); err != nil {
		t.Fatal(err)
	}
	if nw.Network.ID == "" {
		t.Fatalf("register: no id in %s", out)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/networks/"+nw.Network.ID {
		t.Fatalf("register: Location = %q, want /v1/networks/%s", loc, nw.Network.ID)
	}
	return nw.Network.ID
}

// diamondGraph is the repo's stock 4-vertex two-path topology.
func diamondGraph(capacity float64) *truthfulufp.Graph {
	g := truthfulufp.NewGraph(4)
	g.AddEdge(0, 1, capacity)
	g.AddEdge(1, 3, capacity)
	g.AddEdge(0, 2, capacity)
	g.AddEdge(2, 3, capacity)
	return g
}

// TestServeSessionLifecycle walks the full v1 session surface: register,
// price, admit, inspect the ledger, release, delete, and observe the
// 404 afterwards.
func TestServeSessionLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	id := registerNetwork(t, ts, diamondGraph(4), 0.25)
	base := ts.URL + "/v1/networks/" + id

	req := map[string]any{"source": 0, "target": 3, "demand": 1, "value": 50}
	status, out := postJSON(t, base+"/price", req)
	if status != http.StatusOK {
		t.Fatalf("price: status %d: %s", status, out)
	}
	var quote wireDecision
	if err := json.Unmarshal(out, &quote); err != nil {
		t.Fatal(err)
	}
	// Initial prices are y = 1/c on each of the 2 path edges: d·dist = 0.5.
	if !quote.Admitted || quote.Price == nil || *quote.Price != 0.5 || len(quote.Path) != 2 {
		t.Fatalf("price = %+v, want would-admit at 0.5 over 2 edges", quote)
	}
	if quote.ID != 0 {
		t.Fatalf("price minted admission id %d", quote.ID)
	}

	status, out = postJSON(t, base+"/admit", req)
	if status != http.StatusOK {
		t.Fatalf("admit: status %d: %s", status, out)
	}
	var admit wireDecision
	if err := json.Unmarshal(out, &admit); err != nil {
		t.Fatal(err)
	}
	if !admit.Admitted || admit.ID == 0 || admit.Price == nil || *admit.Price != *quote.Price {
		t.Fatalf("admit = %+v, want admitted with id at the quoted price", admit)
	}

	// A no-path probe quotes null price with the no-path reason.
	status, out = postJSON(t, base+"/price", map[string]any{"source": 3, "target": 0, "demand": 0.5, "value": 10})
	if status != http.StatusOK {
		t.Fatalf("no-path price: status %d: %s", status, out)
	}
	var noPath wireDecision
	if err := json.Unmarshal(out, &noPath); err != nil {
		t.Fatal(err)
	}
	if noPath.Admitted || noPath.Reason != "no-path" || noPath.Price != nil {
		t.Fatalf("no-path price = %+v, want rejected with null price", noPath)
	}

	resp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info: status %d: %s", resp.StatusCode, out)
	}
	var info wireNetwork
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatal(err)
	}
	if info.Network.ID != id || info.Network.Vertices != 4 || info.Network.Edges != 4 ||
		info.Network.B != 4 || info.Network.Eps != 0.25 ||
		info.Network.Admitted != 1 || info.Network.Value != 50 || info.Network.Admits != 1 {
		t.Fatalf("info = %+v", info.Network)
	}
	if len(info.Ledger) != 1 || info.Ledger[0].ID != admit.ID ||
		!reflect.DeepEqual(info.Ledger[0].Path, admit.Path) || info.Ledger[0].Value != 50 {
		t.Fatalf("ledger = %+v, want the one admission", info.Ledger)
	}

	status, out = postJSON(t, base+"/release", map[string]any{"id": admit.ID})
	if status != http.StatusOK {
		t.Fatalf("release: status %d: %s", status, out)
	}
	var rel struct {
		Released wireAdmitted `json:"released"`
	}
	if err := json.Unmarshal(out, &rel); err != nil {
		t.Fatal(err)
	}
	if rel.Released.ID != admit.ID || rel.Released.Price != *admit.Price {
		t.Fatalf("release = %+v, want the admitted entry back", rel.Released)
	}
	// Releasing again is a 404 on the admission id.
	status, out = postJSON(t, base+"/release", map[string]any{"id": admit.ID})
	if status != http.StatusNotFound {
		t.Fatalf("double release: status %d: %s", status, out)
	}

	delReq, err := http.NewRequest(http.MethodDelete, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", delResp.StatusCode)
	}
	status, out = postJSON(t, base+"/admit", req)
	if status != http.StatusNotFound {
		t.Fatalf("admit after delete: status %d: %s", status, out)
	}
	var e wireResponse
	if err := json.Unmarshal(out, &e); err != nil || e.Error == nil || e.Error.Code != "not_found" {
		t.Fatalf("post-delete admit not a not_found envelope: %s", out)
	}
}

// TestServeSessionStreamMatchesBatch streams a scenario instance's
// request sequence through HTTP admits and checks the admitted set,
// paths, and total value against the offline batch spelling
// (OnlineAdmission) of the same sequence.
func TestServeSessionStreamMatchesBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	inst, err := scenario.Generate(scenario.Config{Topology: "fattree", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.3
	batch, err := truthfulufp.OnlineAdmission(inst, eps, nil)
	if err != nil {
		t.Fatal(err)
	}

	id := registerNetwork(t, ts, inst.G, eps)
	base := ts.URL + "/v1/networks/" + id
	var streamed []truthfulufp.Routed
	var value float64
	for i, r := range inst.Requests {
		status, out := postJSON(t, base+"/admit", map[string]any{
			"source": r.Source, "target": r.Target, "demand": r.Demand, "value": r.Value,
		})
		if status != http.StatusOK {
			t.Fatalf("admit %d: status %d: %s", i, status, out)
		}
		var d wireDecision
		if err := json.Unmarshal(out, &d); err != nil {
			t.Fatal(err)
		}
		if d.Admitted {
			streamed = append(streamed, truthfulufp.Routed{Request: i, Path: d.Path})
			value += r.Value
		}
	}
	if !reflect.DeepEqual(batch.Routed, streamed) {
		t.Fatalf("streamed admits differ from batch:\n got %v\nwant %v", streamed, batch.Routed)
	}
	if value != batch.Value {
		t.Fatalf("streamed value %g != batch %g", value, batch.Value)
	}
	if len(streamed) == 0 {
		t.Fatal("vacuous comparison: nothing admitted")
	}
}

// TestServeSessionConcurrentAdmits hammers one network from parallel
// clients; the ledger must balance exactly (run with -race in CI).
func TestServeSessionConcurrentAdmits(t *testing.T) {
	ts, _ := newTestServer(t)
	id := registerNetwork(t, ts, diamondGraph(32), 0.25)
	base := ts.URL + "/v1/networks/" + id

	const goroutines, perG = 8, 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted := 0
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				status, out := postJSON(t, base+"/admit", map[string]any{
					"source": 0, "target": 3, "demand": 1, "value": 1e12,
				})
				if status != http.StatusOK {
					t.Errorf("admit: status %d: %s", status, out)
					return
				}
				var d wireDecision
				if err := json.Unmarshal(out, &d); err != nil {
					t.Error(err)
					return
				}
				if d.Admitted {
					mu.Lock()
					admitted++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// Two disjoint 2-edge paths of capacity 32 fit exactly 64 unit
	// demands; value 1e12 outruns every price.
	if admitted != 64 {
		t.Fatalf("admitted %d, want exactly 64", admitted)
	}
	resp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var info wireNetwork
	if err := json.Unmarshal(out, &info); err != nil {
		t.Fatal(err)
	}
	if info.Network.Admitted != 64 || info.Network.Admits != 64 ||
		info.Network.Rejects != goroutines*perG-64 {
		t.Fatalf("info after concurrent admits = %+v", info.Network)
	}
}

// TestServeDeprecationHeaders: every legacy route advertises its
// deprecation (RFC 9745), sunset (RFC 8594), and successor; v1 routes
// stay clean.
func TestServeDeprecationHeaders(t *testing.T) {
	ts, _ := newTestServer(t)
	inst := testInstance(t, 21)

	check := func(t *testing.T, h http.Header, successor string) {
		t.Helper()
		dep := h.Get("Deprecation")
		if !strings.HasPrefix(dep, "@") {
			t.Fatalf("Deprecation = %q, want @<unix-ts>", dep)
		}
		if sunset := h.Get("Sunset"); sunset == "" {
			t.Fatal("no Sunset header")
		} else if when, err := time.Parse(http.TimeFormat, sunset); err != nil || !when.After(legacyDeprecatedAt) {
			t.Fatalf("Sunset = %q: %v", sunset, err)
		}
		want := fmt.Sprintf("<%s>; rel=\"successor-version\"", successor)
		if link := h.Get("Link"); link != want {
			t.Fatalf("Link = %q, want %q", link, want)
		}
	}

	for _, route := range []string{"/solve", "/mechanism"} {
		t.Run(route, func(t *testing.T) {
			data, err := json.Marshal(solveBody(t, inst, nil))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			check(t, resp.Header, "/v1/solve")
		})
	}
	t.Run("/auction", func(t *testing.T) {
		// Even an error response carries the headers.
		resp, err := http.Post(ts.URL+"/auction", "application/json", strings.NewReader(`{"mode":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		check(t, resp.Header, "/v1/solve")
	})
	t.Run("/healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		check(t, resp.Header, "/v1/healthz")
	})
	t.Run("v1 routes are not deprecated", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Sunset") != "" {
			t.Fatalf("v1 route carries deprecation headers: %v", resp.Header)
		}
	})
}

// TestServeV1HealthzSessions: the health endpoint reports the session
// manager's counters.
func TestServeV1HealthzSessions(t *testing.T) {
	ts, _ := newTestServer(t)
	id := registerNetwork(t, ts, diamondGraph(4), 0.25)
	if s, out := postJSON(t, ts.URL+"/v1/networks/"+id+"/admit",
		map[string]any{"source": 0, "target": 3, "demand": 1, "value": 50}); s != http.StatusOK {
		t.Fatalf("admit: status %d: %s", s, out)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status   string `json:"status"`
		Sessions struct {
			Live    int   `json:"live"`
			Created int64 `json:"created"`
			Admits  int64 `json:"admits"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Sessions.Live != 1 ||
		health.Sessions.Created != 1 || health.Sessions.Admits != 1 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestServeSessionEvictionIsGoneOrNotFound: an LRU-evicted session
// answers 404 on lookup (it is gone from the manager).
func TestServeSessionEviction(t *testing.T) {
	eng := truthfulufp.NewEngine(truthfulufp.EngineConfig{Workers: 2, MaxSessions: 1})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newHandler(eng, 0.25, 30*time.Second))
	t.Cleanup(ts.Close)

	id1 := registerNetwork(t, ts, diamondGraph(4), 0.25)
	id2 := registerNetwork(t, ts, diamondGraph(4), 0.25)
	if id1 == id2 {
		t.Fatalf("duplicate session id %q", id1)
	}
	status, out := postJSON(t, ts.URL+"/v1/networks/"+id1+"/admit",
		map[string]any{"source": 0, "target": 3, "demand": 1, "value": 50})
	if status != http.StatusNotFound {
		t.Fatalf("evicted session: status %d: %s", status, out)
	}
	var e wireResponse
	if err := json.Unmarshal(out, &e); err != nil || e.Error == nil || e.Error.Code != "not_found" {
		t.Fatalf("evicted session error = %s", out)
	}
}
