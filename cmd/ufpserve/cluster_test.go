package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"truthfulufp"
)

// slowWireInstance is a solve heavy enough to pin a worker for the
// duration of the test (the grid/request mix from the engine's
// cancellation tests, shippable over JSON).
func slowWireInstance() *truthfulufp.Instance {
	const w = 30
	g := truthfulufp.NewGraph(w * w)
	at := func(r, c int) int { return r*w + c }
	for r := 0; r < w; r++ {
		for c := 0; c < w; c++ {
			if c+1 < w {
				g.AddEdge(at(r, c), at(r, c+1), 100)
				g.AddEdge(at(r, c+1), at(r, c), 100)
			}
			if r+1 < w {
				g.AddEdge(at(r, c), at(r+1, c), 100)
				g.AddEdge(at(r+1, c), at(r, c), 100)
			}
		}
	}
	inst := &truthfulufp.Instance{G: g}
	n := w * w
	for i := 0; i < 800; i++ {
		s := (i * 131) % n
		d := (i*197 + n/2) % n
		if s == d {
			d = (d + 1) % n
		}
		inst.Requests = append(inst.Requests, truthfulufp.Request{
			Source: s, Target: d, Demand: 0.9, Value: 1 + 0.001*float64(i),
		})
	}
	return inst
}

// TestServeOverloadSheds pins the serving-side overload contract: a job
// hitting a full queue answers 429 with the stable "overloaded"
// envelope code and a positive Retry-After hint.
func TestServeOverloadSheds(t *testing.T) {
	eng := truthfulufp.NewEngine(truthfulufp.EngineConfig{
		Workers: 1, SolveWorkers: 1, QueueDepth: 1, CacheSize: -1,
	})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newHandler(eng, 0.25, 0))
	t.Cleanup(ts.Close)

	slow := slowWireInstance()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	// post fires a slow solve with n requests (distinct n = distinct
	// fingerprint, so nothing coalesces) and abandons it on cancel.
	post := func(n int) {
		defer wg.Done()
		inst := &truthfulufp.Instance{G: slow.G, Requests: slow.Requests[:n]}
		raw, err := truthfulufp.MarshalInstance(inst)
		if err != nil {
			t.Error(err)
			return
		}
		data, err := json.Marshal(map[string]any{
			"algorithm": "ufp/bounded", "eps": 0.1, "instance": json.RawMessage(raw),
		})
		if err != nil {
			t.Error(err)
			return
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/solve", bytes.NewReader(data))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	wg.Add(1)
	go post(800) // occupies the lone worker
	waitFor(t, func() bool { return eng.BusyWorkers() > 0 })
	wg.Add(1)
	go post(799) // fills the single queue slot
	waitFor(t, func() bool { return eng.QueueDepth() > 0 })

	// Third distinct job: must shed, not block.
	inst := &truthfulufp.Instance{G: slow.G, Requests: slow.Requests[:798]}
	raw, err := truthfulufp.MarshalInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(map[string]any{
		"algorithm": "ufp/bounded", "eps": 0.1, "instance": json.RawMessage(raw),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: status %d, want 429: %s", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 carries Retry-After %q, want positive seconds", ra)
	}
	var wire wireResponse
	if err := json.Unmarshal(out, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Error == nil || wire.Error.Code != codeOverloaded {
		t.Errorf("429 envelope = %s, want code %q", out, codeOverloaded)
	}
	if got := eng.Snapshot().Shed; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeRouteModeForwardsSessions runs a two-node cluster: session
// ids carry their node prefix, a session call landing on the wrong
// node is proxied to its owner (request id propagated, forwarded
// counter ticking), and deletes work cross-node too.
func TestServeRouteModeForwardsSessions(t *testing.T) {
	const nodes = 2
	servers := make([]*server, nodes)
	tss := make([]*httptest.Server, nodes)
	for i := 0; i < nodes; i++ {
		eng := truthfulufp.NewEngine(truthfulufp.EngineConfig{
			Workers: 2, SessionIDPrefix: fmt.Sprintf("p%d.", i),
		})
		t.Cleanup(eng.Close)
		servers[i] = newServer(eng, 0.25, 30*time.Second, nil, nil)
		tss[i] = httptest.NewServer(servers[i].handler())
		t.Cleanup(tss[i].Close)
	}
	peers := []string{tss[0].URL, tss[1].URL}
	for i, s := range servers {
		s.routeMode, s.peers, s.self = true, peers, i
	}

	// Register on node 1; the id names its home node.
	id := registerNetwork(t, tss[1], diamondGraph(4), 0.25)
	if !strings.HasPrefix(id, "p1.") {
		t.Fatalf("node-1 session id = %q, want p1. prefix", id)
	}

	// Price through node 0: forwarded to node 1, same answer.
	status, out := postJSON(t, tss[0].URL+"/v1/networks/"+id+"/price",
		map[string]any{"source": 0, "target": 3, "demand": 1, "value": 50})
	if status != http.StatusOK {
		t.Fatalf("forwarded price: status %d: %s", status, out)
	}
	var quote wireDecision
	if err := json.Unmarshal(out, &quote); err != nil {
		t.Fatal(err)
	}
	if !quote.Admitted || quote.Price == nil || *quote.Price != 0.5 {
		t.Fatalf("forwarded price = %+v, want would-admit at 0.5", quote)
	}

	// GET through node 0 with a caller-supplied request id: the echoed
	// id survives the hop.
	req, err := http.NewRequest(http.MethodGet, tss[0].URL+"/v1/networks/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "cluster-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded GET: status %d: %s", resp.StatusCode, body)
	}
	if rid := resp.Header.Get("X-Request-Id"); rid != "cluster-rid-1" {
		t.Errorf("forwarded GET echoed request id %q, want cluster-rid-1", rid)
	}

	// The proxy hop is visible in node 0's metrics.
	mresp, mbody := get(t, tss[0].URL+"/metrics")
	mresp.Body.Close()
	if !strings.Contains(string(mbody), `ufp_route_forwarded_total{peer="1"} 2`) {
		t.Errorf("node-0 metrics missing forwarded counter:\n%s", mbody)
	}

	// Delete through node 0, observe the 404 from node 1 directly.
	dreq, err := http.NewRequest(http.MethodDelete, tss[0].URL+"/v1/networks/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("forwarded delete: status %d, want 204", dresp.StatusCode)
	}
	gresp, gbody := get(t, tss[1].URL+"/v1/networks/"+id)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session on home node: status %d: %s", gresp.StatusCode, gbody)
	}
}

// TestServeRouteModeNeverForwardsTwice pins the loop guard: a node whose
// -peers list names itself at another index proxies a foreign id to
// itself once, and the proxied request is answered locally (404) instead
// of being forwarded again.
func TestServeRouteModeNeverForwardsTwice(t *testing.T) {
	eng := truthfulufp.NewEngine(truthfulufp.EngineConfig{Workers: 1, SessionIDPrefix: "p1."})
	t.Cleanup(eng.Close)
	s := newServer(eng, 0.25, 30*time.Second, nil, nil)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	// peers[0] is this very server although -self is 1.
	s.routeMode, s.peers, s.self = true, []string{ts.URL, "http://127.0.0.1:1"}, 1

	resp, body := get(t, ts.URL+"/v1/networks/p0.x")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("self-forwarded GET: status %d: %s", resp.StatusCode, body)
	}
	var wire wireResponse
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Error == nil || wire.Error.Code != codeNotFound {
		t.Errorf("self-forwarded GET envelope = %s, want code %q", body, codeNotFound)
	}
	_, mbody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(mbody), `ufp_route_forwarded_total{peer="0"} 1`+"\n") {
		t.Errorf("want exactly one forward to peer 0:\n%s", mbody)
	}
}
