package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"truthfulufp/internal/core"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer a workload leaves idle reports 0.
var perLayer = []struct{ name, unit string }{
	{"ufpserve.rtt_ms_mean", "ms"},
	{"ufpserve.server_ms_mean", "ms"},
	{"ufpserve.wire_ms_mean", "ms"},
	{"ufpserve.self_ms_mean", "ms"},
	{"ufpserve.decode_ms_mean", "ms"},
	{"ufpserve.req_bytes_mean", "bytes"},
	{"ufpserve.resp_bytes_mean", "bytes"},
	{"shard.route_us_mean", "us"},
	{"shard.routed", "count"},
	{"engine.queue_wait_ms_mean", "ms"},
	{"engine.solve_ms_mean", "ms"},
	{"engine.fingerprint_us_mean", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.coalesced", "count"},
	{"engine.shed", "count"},
	{"engine.utilization", "ratio"},
	{"session.admit_us_mean", "us"},
	{"session.quote_us_mean", "us"},
	{"session.release_us_mean", "us"},
	{"session.lock_wait_us_mean", "us"},
	{"session.register_ms", "ms"},
	{"core.admit_self_us_mean", "us"},
	{"core.quote_us_mean", "us"},
	{"core.decisions.admitted", "count"},
	{"core.decisions.price", "count"},
	{"core.decisions.capacity", "count"},
	{"core.decisions.no_path", "count"},
	{"core.solve_ms_mean", "ms"},
	{"core.iterations_mean", "count"},
	{"pathfind.search_us_mean", "us"},
	{"pathfind.pathto_hit_ratio", "ratio"},
	{"pathfind.recomputed", "count"},
	{"pathfind.reused", "count"},
	{"pathfind.dirty_ratio", "ratio"},
	{"pathfind.oracle_searches", "count"},
	{"pathfind.prune_ratio", "ratio"},
	{"pathfind.bidi_meet_ratio", "ratio"},
	{"pathfind.landmark_rebuilds", "count"},
	{"pathfind.rebuild_ms_total", "ms"},
	{"pathfind.registry_hit_ratio", "ratio"},
	{"mechanism.allocation_ms", "ms"},
	{"mechanism.payment_ms_mean", "ms"},
	{"mechanism.probes_per_payment", "count"},
	{"mechanism.probe_ms_mean", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"loadgen.cpu_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// span is one timed call at a layer boundary. Spans of one operation
// share Trace (the X-Request-Id the traced HTTP pass sent). Parent names
// the layer above in the call chain; replay spans come from separate
// in-process executions of the same operation, one layer lower each.
type span struct {
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

type traced struct {
	pass    *pass
	check   *checked
	metrics map[string]metric
}

// spanLog collects spans in memory, on one clock.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(trace, name, layer, parent string, start, end time.Time) {
	l.spans = append(l.spans, span{trace, name, layer, parent, start.Sub(l.t0), end.Sub(l.t0)})
}

// traceRun runs the traced HTTP pass over exactly the untraced pass's
// operations on a fresh server, then the in-process stacked replay, and
// assembles the per-layer metrics.
func traceRun(ctx context.Context, b *bench, o options, client *http.Client, untraced *pass) (*traced, error) {
	srv, _, err := launch(o.server, client)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	var ids [conns]string
	if b.sess != nil {
		if ids, _, err = register(ctx, client, srv.base, b.sess.register); err != nil {
			return nil, err
		}
	}
	n := untraced.counts()
	split := replaySplit(b.name, n)
	p, err := runPass(ctx, "t", b, client, srv.base, ids, 0, &n, &split, true)
	if err != nil {
		return nil, err
	}
	srv.stop()
	client.CloseIdleConnections()
	ck := checkPass(b, p)
	report(b, p, ck)
	// Two passes over the same ops of one seed: every work count must
	// repeat exactly.
	for _, s := range countSeries(b) {
		if u, t := delta(untraced.before, untraced.after, s), delta(p.before, p.after, s); u != t {
			fmt.Printf("count %s differs between two passes of one seed: %.0f vs %.0f\n", s, u, t)
		}
	}

	m := map[string]float64{}
	log := &spanLog{t0: time.Now()}
	log.spans = p.spans
	httpMetrics(b, p, split, ck, m)
	m["trace.overhead_ratio"] = p.elapsed.Seconds()/untraced.elapsed.Seconds() - 1
	fmt.Printf("trace: traced pass %.3fs vs untraced %.3fs over the same %d ops\n", p.elapsed.Seconds(), untraced.elapsed.Seconds(), p.attempted())

	var l1 float64 // mean per-op time of the in-process stack under ufpserve, ms
	if b.sess != nil {
		l1, err = replaySession(b.sess, p, split, m, log)
	} else {
		l1, err = replayJobs(ctx, b, p, split, m, log)
	}
	if err != nil {
		return nil, err
	}
	m["ufpserve.self_ms_mean"] = m["ufpserve.server_ms_mean"] - l1
	if _, ok := m["engine.queue_wait_ms_mean"]; ok {
		m["engine.queue_wait_ms_mean"] -= m["ufpserve.decode_ms_mean"]
	}
	// The answers are checked; dropping them leaves the runtime pass a
	// heap of the generated inputs and what the stack under test holds.
	for _, q := range []*pass{untraced, p} {
		for c := range q.recs {
			for i := range q.recs[c] {
				q.recs[c][i].resp = nil
			}
		}
	}
	if err := runtimePass(ctx, b, p, split, m); err != nil {
		return nil, err
	}

	dir := filepath.Join(filepath.Dir(o.server), "trace")
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.name, o.seed))
	if err := writeSpans(dir, file, log.spans); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(log.spans), file)

	out := map[string]metric{}
	for _, pl := range perLayer {
		v := m[pl.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[pl.name] = metric{v, pl.unit}
	}
	return &traced{pass: p, check: ck, metrics: out}, nil
}

// httpMetrics derives the metrics the traced pass and the server's own
// /metrics deltas give. The ufpserve row covers the replayed prefix (up
// to the split scrape), so that its self time subtracts the replay's
// mean over the same operations; the other rows cover the whole pass.
func httpMetrics(b *bench, p *pass, split [conns]int, ck *checked, m map[string]float64) {
	var rtt, req, resp, missGap []float64
	for c := range p.recs {
		for i := range p.recs[c][:split[c]] {
			r := &p.recs[c][i]
			if !r.ok() {
				continue
			}
			rtt = append(rtt, ms(r.latency()))
			req = append(req, float64(r.reqBytes))
			resp = append(resp, float64(len(r.resp)))
			var ans solveAnswer
			if r.kind == opJob && json.Unmarshal(r.resp, &ans) == nil && !ans.CacheHit {
				missGap = append(missGap, ms(r.latency())-ans.ElapsedMs)
			}
		}
	}
	d := func(s string) float64 { return delta(p.before, p.after, s) }
	routes := []string{"/v1/solve"}
	if b.sess != nil {
		routes = []string{"/v1/networks/{id}/admit", "/v1/networks/{id}/price", "/v1/networks/{id}/release"}
	}
	var sum, count float64
	for _, r := range routes {
		sum += delta(p.before, p.mid, `ufp_http_request_duration_seconds_sum{route="`+r+`"}`)
		count += delta(p.before, p.mid, `ufp_http_request_duration_seconds_count{route="`+r+`"}`)
	}
	m["ufpserve.rtt_ms_mean"] = mean(rtt)
	m["ufpserve.server_ms_mean"] = 1e3 * ratio(sum, count)
	m["ufpserve.wire_ms_mean"] = m["ufpserve.rtt_ms_mean"] - m["ufpserve.server_ms_mean"]
	m["ufpserve.req_bytes_mean"] = mean(req)
	m["ufpserve.resp_bytes_mean"] = mean(resp)
	if len(missGap) > 0 {
		// A cache miss's round trip outside its solve, less the wire: the
		// engine queue and worker handoff under the pass's real
		// concurrency, plus decoding and encoding (traceRun subtracts the
		// decode time the replay measures on the same bodies).
		m["engine.queue_wait_ms_mean"] = mean(missGap) - m["ufpserve.wire_ms_mean"]
	}

	m["shard.routed"] = d(`ufp_shard_routed_total{shard="0"}`)
	hits, misses := d(mCacheHits), d(mCacheMisses)
	solveSum := d("ufp_engine_solve_duration_seconds_sum")
	m["engine.solve_ms_mean"] = 1e3 * ratio(solveSum, d("ufp_engine_solve_duration_seconds_count"))
	m["engine.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.coalesced"] = d("ufp_engine_jobs_coalesced_total")
	m["engine.shed"] = d("ufp_engine_jobs_shed_total")
	m["engine.utilization"] = ratio(solveSum, p.after["ufp_engine_workers"]*p.elapsed.Seconds())

	m["core.decisions.admitted"] = float64(ck.decisions["admitted"])
	m["core.decisions.price"] = float64(ck.decisions[string(core.RejectPrice)])
	m["core.decisions.capacity"] = float64(ck.decisions[string(core.RejectCapacity)])
	m["core.decisions.no_path"] = float64(ck.decisions[string(core.RejectNoPath)])

	pHits, pMisses := d("ufp_pathcache_path_hits"), d("ufp_pathcache_path_misses")
	rec, reu := d(mRecomputed), d(mReused)
	m["pathfind.pathto_hit_ratio"] = ratio(pHits, pHits+pMisses)
	m["pathfind.recomputed"] = rec
	m["pathfind.reused"] = reu
	m["pathfind.dirty_ratio"] = ratio(rec, rec+reu)
	m["pathfind.oracle_searches"] = d(mOracle)
	// The sessions are fresh, so the live-session gauge is the pass's.
	m["pathfind.prune_ratio"] = p.after["ufp_pathcache_oracle_prune_ratio"]
	m["pathfind.bidi_meet_ratio"] = ratio(d("ufp_pathcache_bidi_meets"), d("ufp_pathcache_bidi_probes"))
	m["pathfind.landmark_rebuilds"] = d(mRebuilds)
	m["pathfind.rebuild_ms_total"] = 1e3 * d("ufp_pathcache_landmark_rebuild_duration_seconds_sum")
	// The registry is process-wide and the server fresh: its lifetime
	// counts cover registration (session-stream) and every probe.
	rh := p.after[`ufp_pathcache_landmark_registry_lookups_total{result="hit"}`]
	rm := p.after[`ufp_pathcache_landmark_registry_lookups_total{result="miss"}`]
	m["pathfind.registry_hit_ratio"] = ratio(rh, rh+rm)
	m["loadgen.cpu_s"] = p.cpu.Seconds()
}

// decodeStrict decodes a body the way ufpserve's handlers do: unknown
// fields and trailing data are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}

func writeSpans(dir, file string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
