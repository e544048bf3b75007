package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"time"

	"truthfulufp"
	"truthfulufp/internal/core"
	"truthfulufp/internal/engine"
	"truthfulufp/internal/mechanism"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/session"
	"truthfulufp/internal/shard"
	"truthfulufp/internal/solver"
)

// The stacked replay runs each connection's first operations of the
// traced pass once per layer, one layer lower each time; a layer's self
// time is its mean minus the next layer's mean over the same
// operations. The layers take turns in blocks of replayBlock session
// ops (one job each), so that drift in the machine's speed hits all
// layers alike while each layer's state stays warm in cache within a
// block.
const (
	replaySessionOps = 3000
	replaySolveJobs  = 500
	replayMechJobs   = 6
	replayBlock      = 256
)

// replaySplit is how many of each connection's ops the replay covers.
func replaySplit(workload string, counts [conns]int) [conns]int {
	n := replaySessionOps
	switch workload {
	case wlSolve:
		n = replaySolveJobs
	case wlMech:
		n = replayMechJobs
	}
	var out [conns]int
	for c := range out {
		out[c] = min(n, counts[c])
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// servedOps returns connection c's served records among its first n.
func servedOps(p *pass, c, n int) []*record {
	var out []*record
	for i := range p.recs[c][:min(n, len(p.recs[c]))] {
		if p.recs[c][i].ok() {
			out = append(out, &p.recs[c][i])
		}
	}
	return out
}

// sessionCall runs one executed op against a session.
func sessionCall(s *session.Session, req core.Request, r *record) (core.Decision, error) {
	switch r.kind {
	case opAdmit:
		return s.Admit(req)
	case opQuote:
		return s.Quote(req)
	default:
		_, err := s.Release(r.releaseID)
		return core.Decision{}, err
	}
}

// byKind collects per-op times (µs) split by op kind.
type byKind struct{ admit, quote, release []float64 }

func (a *byKind) add(k opKind, d time.Duration) {
	switch k {
	case opAdmit:
		a.admit = append(a.admit, us(d))
	case opQuote:
		a.quote = append(a.quote, us(d))
	default:
		a.release = append(a.release, us(d))
	}
}

func (a *byKind) all() []float64 {
	return append(append(append([]float64(nil), a.admit...), a.quote...), a.release...)
}

// replaySession replays the served ops of each connection's replayed
// prefix through shard.Router → session.Session → a fresh
// core.AdmissionState → pathfind.Incremental.PathTo/Invalidate, the
// last with prices re-derived from the core replay's decisions exactly
// as AdmissionState updates them. It returns the router stack's mean
// per-op time in ms.
func replaySession(s *sessionStream, p *pass, split [conns]int, m map[string]float64, log *spanLog) (float64, error) {
	g := s.inst.G
	// The bodies, decoded strictly as ufpserve decodes them.
	var decode []float64
	for c := 0; c < conns; c++ {
		for _, r := range servedOps(p, c, split[c]) {
			body := releaseBody(r.releaseID)
			if r.kind != opRelease {
				body = admitBody(s.inst.Requests[r.req])
			}
			var v struct {
				Source, Target int
				Demand, Value  float64
				ID             int64
			}
			t0 := time.Now()
			if err := decodeStrict(body, &v); err != nil {
				return 0, fmt.Errorf("replay: decoding a %s body: %w", r.kind, err)
			}
			t1 := time.Now()
			log.add(requestID(p.name, c, r.idx), "ufpserve.decodeJSON", "ufpserve", "loadgen.http "+r.kind.String(), t0, t1)
			decode = append(decode, ms(t1.Sub(t0)))
		}
	}
	m["ufpserve.decode_ms_mean"] = mean(decode)

	router := shard.New(shard.Config{})
	defer router.Close()
	// The session replay runs on a standalone manager, whose admit/quote
	// histograms time the core call inside the session lock: the span
	// minus that is the session layer's lock and bookkeeping time.
	mgr := session.NewManager(session.Config{})
	ah0, qh0 := mgr.AdmitLatencyHistogram().Snapshot(), mgr.QuoteLatencyHistogram().Snapshot()
	var l1, l2, l3 byKind
	var route, reg, search, admitPath []float64
	bcap := g.MinCapacity()
	for c := 0; c < conns; c++ {
		t0 := time.Now()
		top, err := router.Register(g, eps)
		if err != nil {
			return 0, err
		}
		reg = append(reg, ms(time.Since(t0)))
		id := top.ID()
		sess, err := mgr.Register(g, eps)
		if err != nil {
			return 0, err
		}
		st, err := core.NewAdmissionState(g, eps, &core.Options{LandmarkRegistry: pathfind.SharedLandmarks})
		if err != nil {
			return 0, err
		}
		y := make([]float64, g.NumEdges())
		for e := range y {
			y[e] = 1 / g.Edge(e).Capacity
		}
		inc := pathfind.NewIncremental(g, nil, nil)
		inc.SetOracle(pathfind.OracleConfig{
			Landmarks: pathfind.SharedLandmarks.Get(g, pathfind.DefaultLandmarkCount, pathfind.FromSlice(y), false),
		})
		ops := servedOps(p, c, split[c])
		decisions := make([]core.Decision, len(ops))
		for lo := 0; lo < len(ops); lo += replayBlock {
			block := ops[lo:min(lo+replayBlock, len(ops))]
			for _, r := range block {
				t0 := time.Now()
				s1, ok := router.Session(id)
				t1 := time.Now()
				if !ok {
					return 0, fmt.Errorf("replay: session %s vanished", id)
				}
				if _, err := sessionCall(s1, s.inst.Requests[r.req], r); err != nil {
					return 0, fmt.Errorf("replay: shard stack %s: %w", r.kind, err)
				}
				t2 := time.Now()
				log.add(requestID(p.name, c, r.idx), "shard.Router.Session", "shard", "loadgen.http "+r.kind.String(), t0, t1)
				route = append(route, us(t1.Sub(t0)))
				l1.add(r.kind, t2.Sub(t0))
			}
			for _, r := range block {
				t0 := time.Now()
				if _, err := sessionCall(sess, s.inst.Requests[r.req], r); err != nil {
					return 0, fmt.Errorf("replay: session layer %s: %w", r.kind, err)
				}
				t1 := time.Now()
				log.add(requestID(p.name, c, r.idx), "session.Session."+r.kind.String(), "session", "shard.Router.Session", t0, t1)
				l2.add(r.kind, t1.Sub(t0))
			}
			for i, r := range block {
				req := s.inst.Requests[r.req]
				var d core.Decision
				t0 := time.Now()
				switch r.kind {
				case opAdmit:
					d, err = st.Admit(req)
				case opQuote:
					d, err = st.Quote(req)
				default:
					_, err = st.Release(r.releaseID)
				}
				t1 := time.Now()
				if err != nil {
					return 0, fmt.Errorf("replay: core layer %s: %w", r.kind, err)
				}
				log.add(requestID(p.name, c, r.idx), "core.AdmissionState."+r.kind.String(), "core", "session.Session."+r.kind.String(), t0, t1)
				l3.add(r.kind, t1.Sub(t0))
				decisions[lo+i] = d
			}
			for i, r := range block {
				if r.kind == opRelease {
					continue // flows only: no path work
				}
				req := s.inst.Requests[r.req]
				tr := requestID(p.name, c, r.idx)
				op := r.kind.String()
				t0 := time.Now()
				inc.PathTo(inc.AddSource(req.Source), req.Target, pathfind.FromSlice(y))
				t1 := time.Now()
				log.add(tr, "pathfind.Incremental.PathTo", "pathfind", "core.AdmissionState."+op, t0, t1)
				search = append(search, us(t1.Sub(t0)))
				if r.kind == opQuote {
					continue
				}
				work := t1.Sub(t0)
				if d := decisions[lo+i]; d.Admitted {
					for _, e := range d.Path {
						y[e] *= math.Exp(eps * bcap * req.Demand / g.Edge(e).Capacity)
					}
					t0 = time.Now()
					inc.Invalidate(d.Path)
					t1 = time.Now()
					log.add(tr, "pathfind.Incremental.Invalidate", "pathfind", "core.AdmissionState."+op, t0, t1)
					work += t1.Sub(t0)
				}
				admitPath = append(admitPath, us(work))
			}
		}
	}
	ah, qh := mgr.AdmitLatencyHistogram().Snapshot(), mgr.QuoteLatencyHistogram().Snapshot()
	inner := (ah.Sum - ah0.Sum + qh.Sum - qh0.Sum) * 1e6
	var spans float64
	for _, v := range append(append([]float64(nil), l2.admit...), l2.quote...) {
		spans += v
	}
	m["session.register_ms"] = mean(reg)
	m["shard.route_us_mean"] = mean(route)
	m["session.admit_us_mean"] = mean(l2.admit)
	m["session.quote_us_mean"] = mean(l2.quote)
	m["session.release_us_mean"] = mean(l2.release)
	m["session.lock_wait_us_mean"] = ratio(spans-inner, float64(len(l2.admit)+len(l2.quote)))
	m["core.admit_self_us_mean"] = mean(l3.admit) - mean(admitPath)
	m["core.quote_us_mean"] = mean(l3.quote)
	m["pathfind.search_us_mean"] = mean(search)
	fmt.Printf("replay: %d ops per layer; mean µs/op shard stack %.1f, session %.1f, core %.1f, pathfind (admit+price) %.1f\n",
		len(l1.all()), mean(l1.all()), mean(l2.all()), mean(l3.all()), mean(search))
	return mean(l1.all()) / 1e3, nil
}

// replayJob is one job of the replay prefix, decoded as the server
// decodes it.
type replayJob struct {
	trace string
	alg   string
	inst  *core.Instance
}

// decodeJob decodes a /v1/solve body as ufpserve does.
func decodeJob(body []byte) (string, *core.Instance, error) {
	var req struct {
		Algorithm string          `json:"algorithm"`
		Eps       float64         `json:"eps"`
		Instance  json.RawMessage `json:"instance"`
	}
	if err := decodeStrict(body, &req); err != nil {
		return "", nil, err
	}
	inst, err := truthfulufp.UnmarshalInstance(req.Instance)
	return req.Algorithm, inst, err
}

// replayJobs replays each connection's first jobs of the traced pass
// down the job stack: shard.Router.Do → engine.Engine.Do →
// solver.Lookup(alg).Solve → (mechanism jobs) RunUFPMechanismCtx with
// every core call timed. It returns the router stack's mean per-job
// time in ms.
func replayJobs(ctx context.Context, b *bench, p *pass, split [conns]int, m map[string]float64, log *spanLog) (float64, error) {
	// Interleave the connections as the server saw them.
	var jobs []replayJob
	var decode []float64
	for k := 0; k < slices.Max(split[:]); k++ {
		for c := 0; c < conns; c++ {
			if k >= split[c] || !p.recs[c][k].ok() {
				continue
			}
			r := &p.recs[c][k]
			t0 := time.Now()
			alg, inst, err := decodeJob(b.jobs[c].job(r.idx).body)
			t1 := time.Now()
			if err != nil {
				return 0, fmt.Errorf("replay: decoding job %d: %w", r.idx, err)
			}
			tr := requestID(p.name, c, r.idx)
			log.add(tr, "ufpserve.decodeJSON+UnmarshalInstance", "ufpserve", "loadgen.http solve", t0, t1)
			decode = append(decode, ms(t1.Sub(t0)))
			jobs = append(jobs, replayJob{tr, alg, inst})
		}
	}
	m["ufpserve.decode_ms_mean"] = mean(decode)

	router := shard.New(shard.Config{})
	defer router.Close()
	eng := engine.New(engine.Config{})
	defer eng.Close()
	pool := pathfind.NewPool()
	var l1, l2, l3, fp, route, iters []float64
	var alloc, probes, calls, allocIters []float64
	var payments, winners float64
	for _, j := range jobs {
		ej := engine.Job{Algorithm: j.alg, Eps: eps, UFP: j.inst}
		t0 := time.Now()
		ej.Fingerprint()
		t1 := time.Now()
		_, err := router.Do(ctx, ej)
		t2 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("replay: shard layer: %w", err)
		}
		log.add(j.trace, "engine.Job.Fingerprint", "engine", "shard.Router.Do", t0, t1)
		log.add(j.trace, "shard.Router.Do", "shard", "loadgen.http solve", t1, t2)
		fp = append(fp, us(t1.Sub(t0)))
		l1 = append(l1, ms(t2.Sub(t1)))

		t0 = time.Now()
		if _, err := eng.Do(ctx, ej); err != nil {
			return 0, fmt.Errorf("replay: engine layer: %w", err)
		}
		t1 = time.Now()
		log.add(j.trace, "engine.Engine.Do", "engine", "shard.Router.Do", t0, t1)
		l2 = append(l2, ms(t1.Sub(t0)))

		// The router's own work is far below a solve's run-to-run
		// variation, so it is timed on a repeat of the job, which both
		// caches answer: the difference is routing alone.
		t0 = time.Now()
		_, err1 := router.Do(ctx, ej)
		t1 = time.Now()
		_, err2 := eng.Do(ctx, ej)
		t2 = time.Now()
		if err := errors.Join(err1, err2); err != nil {
			return 0, fmt.Errorf("replay: cached repeat: %w", err)
		}
		route = append(route, us(t1.Sub(t0)-t2.Sub(t1)))

		sv, _ := solver.Lookup(j.alg)
		t0 = time.Now()
		out, err := sv.Solve(ctx, solver.Input{UFP: j.inst}, solver.Params{Eps: eps, Workers: 1, PathPool: pool})
		t1 = time.Now()
		if err != nil {
			return 0, fmt.Errorf("replay: solver layer: %w", err)
		}
		log.add(j.trace, "solver.Solve "+j.alg, "solver", "engine.Engine.Do", t0, t1)
		l3 = append(l3, ms(t1.Sub(t0)))
		if out.Allocation != nil {
			iters = append(iters, float64(out.Allocation.Iterations))
		}
		if j.alg != "ufp/mechanism" {
			continue
		}

		// The mechanism's payment loop over the Bounded-UFP adapter,
		// wrapped to count and time every core call: the first is the
		// allocation, the rest are critical-value bisection probes.
		base := mechanism.BoundedUFPAlgCtx(ctx, eps, &core.Options{Workers: 1})
		first := true
		timed := func(in *core.Instance) (*core.Allocation, error) {
			t0 := time.Now()
			a, err := base(in)
			t1 := time.Now()
			name := "core.BoundedUFP probe"
			if first {
				name = "core.BoundedUFP allocation"
				alloc = append(alloc, ms(t1.Sub(t0)))
				if a != nil {
					allocIters = append(allocIters, float64(a.Iterations))
				}
				first = false
			} else {
				probes = append(probes, ms(t1.Sub(t0)))
			}
			calls = append(calls, ms(t1.Sub(t0)))
			log.add(j.trace, name, "core", "mechanism.RunUFPMechanismCtx", t0, t1)
			return a, err
		}
		t0 = time.Now()
		mo, err := mechanism.RunUFPMechanismCtx(ctx, timed, j.inst)
		t1 = time.Now()
		if err != nil {
			return 0, fmt.Errorf("replay: mechanism layer: %w", err)
		}
		log.add(j.trace, "mechanism.RunUFPMechanismCtx", "mechanism", "solver.Solve "+j.alg, t0, t1)
		winners += float64(len(mo.Payments))
		payments += ms(t1.Sub(t0)) - alloc[len(alloc)-1]
	}
	m["engine.fingerprint_us_mean"] = mean(fp)
	m["shard.route_us_mean"] = mean(route)
	if b.name == wlMech {
		m["mechanism.allocation_ms"] = mean(alloc)
		m["mechanism.payment_ms_mean"] = ratio(payments, winners)
		m["mechanism.probes_per_payment"] = ratio(float64(len(probes)), winners)
		m["mechanism.probe_ms_mean"] = mean(probes)
		m["core.solve_ms_mean"] = mean(calls)
		m["core.iterations_mean"] = mean(allocIters)
	} else {
		m["core.solve_ms_mean"] = mean(l3)
		m["core.iterations_mean"] = mean(iters)
	}
	fmt.Printf("replay: %d jobs per layer; mean ms/job shard stack %.3f, engine %.3f, solver %.3f\n", len(jobs), mean(l1), mean(l2), mean(l3))
	return mean(l1), nil
}

// runtimePass measures the Go runtime under the in-process serving
// stack: it streams the replayed prefix's served ops through a fresh
// shard.Router and reads runtime/metrics around them. It runs in the
// benchmark process, whose heap also holds the generated inputs, so the
// GC runs less often than in ufpserve: runtime.alloc_bytes_per_op is
// what the stack allocates, while the GC figures compare two versions
// of the program, not the benchmark with the server.
func runtimePass(ctx context.Context, b *bench, p *pass, split [conns]int, m map[string]float64) error {
	router := shard.New(shard.Config{})
	defer router.Close()
	var ids [conns]string
	var jobs [][]byte
	if b.sess != nil {
		for c := range ids {
			s, err := router.Register(b.sess.inst.G, eps)
			if err != nil {
				return err
			}
			ids[c] = s.ID()
		}
	} else {
		// Interleave the connections as the server saw them.
		for k := 0; k < slices.Max(split[:]); k++ {
			for c := 0; c < conns; c++ {
				if k < split[c] && p.recs[c][k].ok() {
					jobs = append(jobs, b.jobs[c].job(k).body)
				}
			}
		}
	}

	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	read := func() ([]float64, uint64) {
		// A forced collection settles the runtime's CPU accounting, which
		// it updates at the end of each cycle.
		runtime.GC()
		rtmetrics.Read(samples)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out := make([]float64, len(samples))
		for i, s := range samples {
			if s.Value.Kind() == rtmetrics.KindUint64 {
				out[i] = float64(s.Value.Uint64())
			} else {
				out[i] = s.Value.Float64()
			}
		}
		return out, ms.PauseTotalNs
	}
	before, pause0 := read()
	ops := 0
	if b.sess != nil {
		for c := range ids {
			for _, r := range servedOps(p, c, split[c]) {
				s, ok := router.Session(ids[c])
				if !ok {
					return fmt.Errorf("runtime pass: session %s vanished", ids[c])
				}
				if _, err := sessionCall(s, b.sess.inst.Requests[r.req], r); err != nil {
					return fmt.Errorf("runtime pass: %s: %w", r.kind, err)
				}
				ops++
			}
		}
	} else {
		for _, body := range jobs {
			alg, inst, err := decodeJob(body)
			if err != nil {
				return err
			}
			if _, err := router.Do(ctx, engine.Job{Algorithm: alg, Eps: eps, UFP: inst}); err != nil {
				return fmt.Errorf("runtime pass: %w", err)
			}
			ops++
		}
	}
	after, pause1 := read()
	m["runtime.alloc_bytes_per_op"] = ratio(after[0]-before[0], float64(ops))
	m["runtime.gc_cpu_fraction"] = ratio(after[1]-before[1], after[2]-before[2])
	m["runtime.gc_pause_ms_total"] = float64(pause1-pause0) / 1e6
	return nil
}
