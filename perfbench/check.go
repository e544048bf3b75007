package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"truthfulufp"
	"truthfulufp/internal/core"
	"truthfulufp/internal/mechanism"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/scenario"
	"truthfulufp/internal/solver"
)

// checked is the outcome of checking one pass's answers against an
// in-process reference.
type checked struct {
	mismatches int      // ops whose answer differs from the reference
	examples   []string // the first few mismatches, for the log
	// offered and admitted sum the value offered (admits; every job's
	// requests) and admitted over the quality prefix.
	offered, admitted float64
	// expected holds the exact work counts the reference predicts for the
	// pass's /metrics deltas.
	expected map[string]float64
	// decisions counts session decisions over the quality prefix by
	// outcome (admitted or the reject reason).
	decisions map[string]int
}

func (ck *checked) mismatch(format string, args ...any) {
	ck.mismatches++
	if len(ck.examples) < 5 {
		ck.examples = append(ck.examples, fmt.Sprintf(format, args...))
	}
}

func (ck *checked) merge(o *checked) {
	ck.mismatches += o.mismatches
	for _, e := range o.examples {
		if len(ck.examples) < 5 {
			ck.examples = append(ck.examples, e)
		}
	}
	ck.offered += o.offered
	ck.admitted += o.admitted
	for k, v := range o.expected {
		ck.expected[k] += v
	}
	for k, v := range o.decisions {
		ck.decisions[k] += v
	}
}

func newChecked() *checked {
	return &checked{expected: map[string]float64{}, decisions: map[string]int{}}
}

// checkPass verifies every successful answer of the pass, one goroutine
// per connection.
func checkPass(b *bench, p *pass) *checked {
	var (
		wg  sync.WaitGroup
		out [conns]*checked
	)
	if b.sess != nil {
		b.sess.inst.G.Freeze() // before the replays share the graph
	}
	reg := pathfind.NewLandmarkRegistry(pathfind.DefaultRegistryCapacity)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.sess != nil {
				out[c] = checkSession(b.sess, c, p.recs[c], b.quality, reg)
			} else {
				out[c] = checkJobs(b, c, p.recs[c])
			}
		}()
	}
	wg.Wait()
	all := newChecked()
	for _, ck := range out {
		all.merge(ck)
	}
	return all
}

// Work-count series of the /metrics exposition. Each one's delta over a
// pass must equal the count the in-process reference predicts.
const (
	mAdmits      = "ufp_session_admits_total"
	mRejects     = "ufp_session_rejects_total"
	mQuotes      = "ufp_session_quotes_total"
	mReleases    = "ufp_session_releases_total"
	mRecomputed  = "ufp_pathcache_tree_recomputed"
	mReused      = "ufp_pathcache_tree_reused"
	mOracle      = "ufp_pathcache_oracle_searches"
	mRebuilds    = "ufp_pathcache_landmark_rebuilds_total"
	mCacheHits   = "ufp_engine_cache_hits_total"
	mCacheMisses = "ufp_engine_cache_misses_total"
)

// decisionJSON is ufpserve's admit/price answer without its timing
// field: the part that must repeat byte for byte.
type decisionJSON struct {
	Admitted bool            `json:"admitted"`
	ID       int64           `json:"id,omitempty"`
	Reason   string          `json:"reason,omitempty"`
	Price    json.RawMessage `json:"price"`
	Path     []int           `json:"path,omitempty"`
}

func encodeDecision(d core.Decision) []byte {
	out := decisionJSON{Admitted: d.Admitted, ID: d.ID, Reason: string(d.Reason), Path: d.Path, Price: json.RawMessage("null")}
	if d.Reason != core.RejectNoPath {
		out.Price, _ = json.Marshal(d.Price)
	}
	b, _ := json.Marshal(out)
	return b
}

// admittedJSON is ufpserve's ledger entry (the release answer).
type admittedJSON struct {
	ID     int64   `json:"id"`
	Source int     `json:"source"`
	Target int     `json:"target"`
	Demand float64 `json:"demand"`
	Value  float64 `json:"value"`
	Price  float64 `json:"price"`
	Path   []int   `json:"path"`
}

// canonical re-encodes a server answer through v, dropping fields v
// does not carry (the elapsedMs timing).
func canonical(raw []byte, v any) []byte {
	if err := json.Unmarshal(raw, v); err != nil {
		return []byte("undecodable: " + err.Error())
	}
	b, _ := json.Marshal(v)
	return b
}

// checkSession replays one connection's executed session ops through a
// fresh core.AdmissionState — configured as the server configures a
// session, so its cache counters predict the server's — and compares
// every decision.
func checkSession(s *sessionStream, c int, recs []record, quality int, reg *pathfind.LandmarkRegistry) *checked {
	ck := newChecked()
	for _, m := range []string{mAdmits, mRejects, mQuotes, mReleases} {
		ck.expected[m] = 0
	}
	st, err := core.NewAdmissionState(s.inst.G, eps, &core.Options{LandmarkRegistry: reg})
	if err != nil {
		ck.mismatch("conn %d: building the reference state: %v", c, err)
		return ck
	}
	var live []int64
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		if want := s.op(c, r.idx).executed(len(live)); want != r.kind {
			ck.mismatch("conn %d op %d: client ran %s, the reference runs %s", c, r.idx, r.kind, want)
		}
		inPrefix := r.idx < quality
		switch r.kind {
		case opAdmit, opQuote:
			req := s.inst.Requests[r.req]
			var d core.Decision
			if r.kind == opAdmit {
				d, err = st.Admit(req)
				if err == nil {
					if d.Admitted {
						ck.expected[mAdmits]++
						live = append(live, d.ID)
					} else {
						ck.expected[mRejects]++
					}
					if inPrefix {
						ck.offered += req.Value
						if d.Admitted {
							ck.admitted += req.Value
						}
						ck.decisions[decisionKey(d)]++
					}
				}
			} else {
				d, err = st.Quote(req)
				ck.expected[mQuotes]++
			}
			if err != nil {
				ck.mismatch("conn %d op %d: reference %s failed: %v", c, r.idx, r.kind, err)
				continue
			}
			if got, want := canonical(r.resp, &decisionJSON{}), encodeDecision(d); !bytes.Equal(got, want) {
				ck.mismatch("conn %d op %d %s: server %s, reference %s", c, r.idx, r.kind, got, want)
			}
		case opRelease:
			if len(live) == 0 || live[0] != r.releaseID {
				ck.mismatch("conn %d op %d: released id %d is not the oldest live admission", c, r.idx, r.releaseID)
			} else {
				live = live[1:]
			}
			a, err := st.Release(r.releaseID)
			if err != nil {
				ck.mismatch("conn %d op %d: reference release: %v", c, r.idx, err)
				continue
			}
			ck.expected[mReleases]++
			want, _ := json.Marshal(struct {
				Released admittedJSON `json:"released"`
			}{admittedJSON{a.ID, a.Request.Source, a.Request.Target, a.Request.Demand, a.Request.Value, a.Price, a.Path}})
			var got struct {
				Released admittedJSON `json:"released"`
			}
			if g := canonical(r.resp, &got); !bytes.Equal(g, want) {
				ck.mismatch("conn %d op %d release: server %s, reference %s", c, r.idx, g, want)
			}
		}
	}
	cs := st.CacheStats()
	ck.expected[mRecomputed] = float64(cs.Recomputed)
	ck.expected[mReused] = float64(cs.Reused)
	ck.expected[mOracle] = float64(cs.AltSearches)
	ck.expected[mRebuilds] = float64(cs.LandmarkRebuilds)
	return ck
}

func decisionKey(d core.Decision) string {
	if d.Admitted {
		return "admitted"
	}
	return string(d.Reason)
}

// solveAnswer is ufpserve's /v1/solve answer.
type solveAnswer struct {
	Allocation json.RawMessage `json:"allocation"`
	Outcome    json.RawMessage `json:"outcome"`
	CacheHit   bool            `json:"cacheHit"`
	ElapsedMs  float64         `json:"elapsedMs"` // the engine's solve time
}

// reference solves a job in-process: a direct solver.Solve for
// ufp/solve, a direct RunUFPMechanismCtx for ufp/mechanism. It returns
// the canonical result encoding.
func reference(alg string, inst *core.Instance) ([]byte, error) {
	ctx := context.Background()
	var out truthfulufp.SolverOutput
	if alg == "ufp/mechanism" {
		o, err := mechanism.RunUFPMechanismCtx(ctx, mechanism.BoundedUFPAlgCtx(ctx, eps, &core.Options{Workers: 1}), inst)
		if err != nil {
			return nil, err
		}
		out.UFPOutcome = o
	} else {
		sv, _ := solver.Lookup(alg)
		o, err := sv.Solve(ctx, solver.Input{UFP: inst}, solver.Params{Eps: eps, Workers: 1})
		if err != nil {
			return nil, err
		}
		out.Allocation = o.Allocation
	}
	b, err := truthfulufp.MarshalSolverOutput(out)
	if err != nil {
		return nil, err
	}
	return compact(b), nil
}

func compact(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}

// checkJobs compares every answered job with its reference (computed
// once per distinct instance) and, for mechanism outcomes, checks the
// critical-value properties: every payment is at most the winner's
// declared value and only winners pay.
func checkJobs(b *bench, c int, recs []record) *checked {
	ck := newChecked()
	ck.expected[mCacheHits], ck.expected[mCacheMisses] = 0, 0
	s := b.jobs[c]
	type ref struct {
		want []byte
		inst *core.Instance
	}
	refs := map[int]ref{} // by pool index
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		jb := s.job(r.idx)
		orig := r.idx % len(s.jobs)
		if jb.repeatOf >= 0 {
			orig = jb.repeatOf
			ck.expected[mCacheHits]++
		} else {
			ck.expected[mCacheMisses]++
		}
		rf, ok := refs[orig]
		if !ok {
			inst, err := scenario.Generate(s.jobs[orig].cfg)
			if err == nil {
				rf = ref{inst: inst}
				rf.want, err = reference(s.alg, inst)
			}
			if err != nil {
				ck.mismatch("conn %d job %d: reference solve failed: %v", c, r.idx, err)
				continue
			}
			refs[orig] = rf
		}
		inst := rf.inst
		var ans solveAnswer
		if err := json.Unmarshal(r.resp, &ans); err != nil {
			ck.mismatch("conn %d job %d: undecodable answer: %v", c, r.idx, err)
			continue
		}
		got := ans.Allocation
		if s.alg == "ufp/mechanism" {
			got = ans.Outcome
		}
		if !bytes.Equal(compact(got), rf.want) {
			ck.mismatch("conn %d job %d (%s/%s seed %d): server answer differs from the reference", c, r.idx, jb.cfg.Topology, jb.cfg.Demand, jb.cfg.Seed)
			continue
		}
		var value float64
		if s.alg == "ufp/mechanism" {
			out, err := truthfulufp.UnmarshalUFPOutcome(got)
			if err != nil {
				ck.mismatch("conn %d job %d: %v", c, r.idx, err)
				continue
			}
			value = out.Allocation.Value
			if msg := paymentViolation(out, inst); msg != "" {
				ck.mismatch("conn %d job %d: %s", c, r.idx, msg)
			}
		} else {
			a, err := truthfulufp.UnmarshalAllocation(got)
			if err != nil {
				ck.mismatch("conn %d job %d: %v", c, r.idx, err)
				continue
			}
			value = a.Value
		}
		if r.idx < b.quality {
			ck.offered += inst.TotalValue()
			ck.admitted += value
		}
	}
	return ck
}

// paymentViolation checks the paper's critical-value payment
// properties on an outcome.
func paymentViolation(out *truthfulufp.UFPOutcome, inst *core.Instance) string {
	won := out.Allocation.Selected(len(inst.Requests))
	for r, pay := range out.Payments {
		if r < 0 || r >= len(inst.Requests) {
			return fmt.Sprintf("payment for unknown request %d", r)
		}
		if !won[r] && pay != 0 {
			return fmt.Sprintf("loser %d pays %g", r, pay)
		}
		if math.IsNaN(pay) || pay < 0 || pay > inst.Requests[r].Value {
			return fmt.Sprintf("request %d pays %g for declared value %g", r, pay, inst.Requests[r].Value)
		}
	}
	for r, w := range won {
		if _, ok := out.Payments[r]; w && !ok {
			return fmt.Sprintf("winner %d has no payment", r)
		}
	}
	return ""
}
