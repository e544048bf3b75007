package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"truthfulufp/internal/pathfind"
)

// Candidate is one request's best path in the current iteration, as seen
// by the selection step: Ratio is the paper's normalized length
// (d_r/v_r)·|p_r|. Tie-break rules compare candidates with equal ratios.
type Candidate struct {
	Request int
	Ratio   float64
	Path    []int
}

// TieBreak orders candidates whose ratios are (numerically) tied; it
// returns true if a should be preferred over b. The default prefers the
// smaller request index, which keeps the algorithm deterministic.
type TieBreak func(a, b Candidate) bool

// Options configure the primal-dual solvers. The zero value is ready to
// use.
type Options struct {
	// Workers bounds the number of goroutines used for per-iteration
	// shortest-path computations; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// TieBreak overrides the default tie-breaking between candidates with
	// equal ratios. It never sees candidates with different ratios.
	TieBreak TieBreak
	// MaxIterations caps the main loop (0 = unlimited). Useful for the
	// repetitions variant whose iteration count is pseudo-polynomial.
	MaxIterations int
	// OnIteration, if non-nil, observes each iteration after selection:
	// the iteration index (from 0), the selected candidate, and the dual
	// value Σ c_e·y_e before the price update.
	OnIteration func(iter int, chosen Candidate, dualBefore float64)
	// NoIncremental disables the dirty-source shortest-path cache: every
	// iteration recomputes every active source from scratch (the
	// pre-cache behavior). Allocations are identical either way — the
	// cache reuses only trees a recomputation would reproduce bit for bit
	// — so this exists for benchmarking the cache and as a belt-and-
	// braces escape hatch.
	NoIncremental bool
	// Adaptive enables the single-target path oracle under the per-slot
	// adaptive refresh policy (pathfind.Incremental.PreferSingle): a
	// source with one remaining target is answered by a cached
	// early-exit search (pathfind.Incremental.PathTo) instead of a full
	// shortest-path tree, and a source fanning out to a few targets
	// routes to single-target searches once its observed dirty rate
	// makes whole-tree refreshes a loss. Answers are bit-identical
	// whichever way a slot is routed, so the flag moves work, never
	// results. It pays off when most sources carry a single request —
	// the mechanism's Bounded-UFP adapter, which re-solves the instance
	// once per winner, enables it for exactly that reason.
	Adaptive bool
	// Landmarks, if non-nil, prunes the single-target oracle's searches
	// with ALT lower bounds (pathfind.BuildLandmarks). The tables must be
	// built on the instance's frozen graph under a lower bound of the
	// run's weights — the floor prices 1/capacity qualify for every
	// exponential-price run, since prices only rise, so the tables are
	// built once and never rebuilt. The cache re-validates the bound
	// lazily and disables the tables on a violation, so a stale table
	// costs speed, never correctness.
	Landmarks *pathfind.Landmarks
	// LandmarkRegistry, if non-nil, is where automatic landmark builds
	// (sessions past the auto-enable size, with Landmarks nil) are
	// shared: structurally identical topologies with the same initial
	// prices reuse one immutable table set instead of rebuilding per
	// session or per shard. The serving stack passes
	// pathfind.SharedLandmarks.
	LandmarkRegistry *pathfind.LandmarkRegistry
	// PathPool, if non-nil, supplies the Dijkstra scratch buffers
	// (see pathfind.Pool). Sharing one pool across many solves — as the
	// engine does across its worker pool — keeps the per-solve allocation
	// footprint flat; nil uses a per-solve pool.
	PathPool *pathfind.Pool
}

func (o *Options) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// ctxErr is a non-blocking done-check on an optional context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

func (o *Options) tieBreak() TieBreak {
	if o == nil || o.TieBreak == nil {
		return func(a, b Candidate) bool { return a.Request < b.Request }
	}
	return o.TieBreak
}

func (o *Options) noIncremental() bool { return o != nil && o.NoIncremental }

func (o *Options) adaptive() bool { return o != nil && o.Adaptive }

func (o *Options) landmarks() *pathfind.Landmarks {
	if o == nil {
		return nil
	}
	return o.Landmarks
}

func (o *Options) landmarkRegistry() *pathfind.LandmarkRegistry {
	if o == nil {
		return nil
	}
	return o.LandmarkRegistry
}

func (o *Options) pathPool() *pathfind.Pool {
	if o == nil {
		return nil
	}
	return o.PathPool
}

// ensurePathPool returns the configured scratch pool, or a fresh
// private one for solvers that always want pooling.
func (o *Options) ensurePathPool() *pathfind.Pool {
	if p := o.pathPool(); p != nil {
		return p
	}
	return pathfind.NewPool()
}

// ratioTolerance treats ratios within a relative 1e-12 as tied, so that
// tie-break rules (and hence the lower-bound constructions) behave
// identically across floating-point noise.
const ratioTolerance = 1e-12

func ratiosTied(a, b float64) bool {
	return math.Abs(a-b) <= ratioTolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// BoundedUFP runs Algorithm 1 (Bounded-UFP) with accuracy parameter eps.
//
// It maintains dual prices y_e (initially 1/c_e), and while requests
// remain and Σ_e c_e·y_e <= e^{ε(B-1)}, repeatedly routes the request
// minimizing (d_r/v_r)·(shortest-path length under y), multiplying the
// prices along the chosen path by e^{εB·d/c_e}.
//
// Per Theorem 3.1, calling BoundedUFP with eps = ε/6 on an instance with
// B >= ln(m)/ε² yields a feasible ((1+ε)·e/(e-1))-approximate solution,
// and the selection is monotone and exact in every request's (demand,
// value), so critical-value payments make it truthful. Use SolveUFP for
// the ε/6 calling convention.
//
// The returned allocation carries a certified DualBound: by Claim 3.6,
// scaling y by 1/α(i) is dual feasible, so min over iterations of
// D1(i)/α(i) + P(i) upper-bounds the fractional optimum.
func BoundedUFP(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	a, _, err := boundedUFPLoop(nil, inst, eps, opt, false, -1)
	return a, err
}

// SolveUFP is the Theorem 3.1 calling convention: BoundedUFP(ε/6), which
// guarantees a ((1+ε)·e/(e-1))-approximation for B >= ln(m)/ε²-bounded
// instances.
func SolveUFP(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return SolveUFPCtx(nil, inst, eps, opt)
}

// BoundedUFPRepeat runs Algorithm 3 (Bounded-UFP-Repeat) with accuracy
// parameter eps: identical price dynamics, but requests stay in the pool
// after selection and may be routed repeatedly. Per Theorem 5.1, eps =
// ε/6 yields a (1+ε)-approximation for B >= ln(m)/ε²-bounded instances;
// the iteration count is bounded by m·c_max/d_min.
func BoundedUFPRepeat(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	a, _, err := boundedUFPLoop(nil, inst, eps, opt, true, -1)
	return a, err
}

// SolveUFPRepeat is the Theorem 5.1 calling convention:
// BoundedUFPRepeat(ε/6).
func SolveUFPRepeat(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return SolveUFPRepeatCtx(nil, inst, eps, opt)
}

// BoundedUFPCriticalCtx returns request r's critical value under
// BoundedUFP(eps) with options opt: the infimum declared value at which
// r is selected, holding its demand and every other declaration fixed.
// The answer does not depend on r's own declared value; a result above
// it means r is not selected as declared.
//
// One counterfactual run suffices. Bounded-UFP routes the remaining
// request with the smallest (d_r/v_r)·|p_r|, and v_r enters only r's own
// ratio, so lowering v_r leaves the run unchanged until r is picked, and
// until then it is the run R₋ᵣ in which r never competes. r, declared
// at v, is picked at iteration k of R₋ᵣ iff d_r·L_k(r)/v beats the
// chosen ratio ρ*_k, where L_k(r) is r's shortest-path length under
// iteration k's prices. The critical value is therefore min over the
// executed iterations of d_r·L_k(r)/ρ*_k — or 0 when R₋ᵣ ends with r
// the only candidate left (every other request routed below the dual
// threshold and inside MaxIterations, or none of them routable) and r
// reachable. The selection treats ratios within ratioTolerance as tied
// and breaks the tie by request index, so the value at which the loop
// itself switches can sit a relative ratioTolerance/ρ*_k (for ρ*_k < 1)
// away from this one — far inside the mechanism's CriticalPrecision
// unless ratios fall below ~1e-3. Repeat mode has no critical-value
// form: a routed request stays in the pool.
func BoundedUFPCriticalCtx(ctx context.Context, inst *Instance, eps float64, opt *Options, r int) (float64, error) {
	if r < 0 || r >= len(inst.Requests) {
		return 0, fmt.Errorf("core: request %d out of range", r)
	}
	_, crit, err := boundedUFPLoop(ctx, inst, eps, opt, false, r)
	return crit, err
}

// boundedUFPLoop is the main loop of Bounded-UFP (and, with repeat, of
// Bounded-UFP-Repeat). A held-out request index held >= 0 runs the
// counterfactual R₋ᵣ of BoundedUFPCriticalCtx instead: request held stays
// in the instance — so B, the threshold, the request indices and the
// path cache's per-source targets are those of the full run — but never
// enters the pool, and the second result is its critical value. Normal
// runs pass held = -1 and ignore the second result.
func boundedUFPLoop(ctx context.Context, inst *Instance, eps float64, opt *Options, repeat bool, held int) (*Allocation, float64, error) {
	if err := inst.Validate(); err != nil {
		return nil, 0, err
	}
	if err := validateEps(eps); err != nil {
		return nil, 0, err
	}
	b := inst.B()
	if len(inst.Requests) == 0 {
		return &Allocation{Stop: StopAllSatisfied, DualBound: 0}, 0, nil
	}
	if err := checkExponentRange(eps, b); err != nil {
		return nil, 0, err
	}
	g := inst.G
	m := g.NumEdges()
	y := make([]float64, m)
	dualSum := 0.0 // Σ_e c_e·y_e, the quantity D1(i)
	for e := 0; e < m; e++ {
		y[e] = 1 / g.Edge(e).Capacity
		dualSum++
	}
	threshold := math.Exp(eps * (b - 1))
	remaining := make([]bool, len(inst.Requests))
	numRemaining := len(inst.Requests)
	for i := range remaining {
		remaining[i] = true
	}
	crit := math.Inf(1)
	if held >= 0 {
		remaining[held] = false
		numRemaining--
	}
	atLimit := func(iters int) bool { return opt != nil && opt.MaxIterations > 0 && iters >= opt.MaxIterations }
	alloc := &Allocation{DualBound: math.Inf(1)}
	tie := opt.tieBreak()
	sp := newShortestPaths(inst, opt)
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, 0, fmt.Errorf("core: solve cancelled after %d iterations: %w", alloc.Iterations, err)
		}
		if !repeat && numRemaining == 0 {
			alloc.Stop = StopAllSatisfied
			break
		}
		if dualSum > threshold {
			alloc.Stop = StopDualThreshold
			break
		}
		if atLimit(alloc.Iterations) {
			alloc.Stop = StopIterationLimit
			break
		}
		best, ok := sp.bestCandidate(remaining, y, tie)
		if !ok {
			alloc.Stop = StopNoRoutablePath
			break
		}
		// The held-out request, declared at v, would have been picked
		// here iff (d/v)·L < ρ*: so v = d·L/ρ* is this iteration's
		// threshold for it.
		if held >= 0 {
			if dist, ok := sp.distTo(held, y); ok {
				crit = math.Min(crit, inst.Requests[held].Demand*dist/best.Ratio)
			}
		}
		// Dual-fitting bound (Claim 3.6): (y/α, z) is dual feasible, with
		// value D1/α + P where P is the value routed so far.
		if bound := dualSum/best.Ratio + alloc.Value; bound < alloc.DualBound {
			alloc.DualBound = bound
		}
		if opt != nil && opt.OnIteration != nil {
			opt.OnIteration(alloc.Iterations, best, dualSum)
		}
		r := inst.Requests[best.Request]
		for _, e := range best.Path {
			c := g.Edge(e).Capacity
			old := y[e]
			y[e] = old * math.Exp(eps*b*r.Demand/c)
			dualSum += c * (y[e] - old)
		}
		// Only the admitted path's prices moved; every cached tree not
		// touching it stays exact.
		sp.invalidate(best.Path)
		alloc.Routed = append(alloc.Routed, Routed{Request: best.Request, Path: best.Path})
		alloc.Value += r.Value
		alloc.Iterations++
		if !repeat {
			remaining[best.Request] = false
			numRemaining--
		}
	}
	if held >= 0 {
		// With the others all routed (the full run still has the held-out
		// request left, so it goes on to the threshold and iteration-limit
		// checks) or none of them routable, the held-out request is the
		// only candidate: if it is reachable it wins at any value.
		last := alloc.Stop == StopNoRoutablePath ||
			alloc.Stop == StopAllSatisfied && dualSum <= threshold && !atLimit(alloc.Iterations)
		if last {
			if _, ok := sp.distTo(held, y); ok {
				crit = 0
			}
		}
		return alloc, crit, nil
	}
	// One more dual-fitting sample after the loop: the final prices with
	// the final α still certify a bound (and are the only sample if the
	// loop exited immediately).
	if alloc.Stop == StopDualThreshold {
		if best, ok := sp.bestCandidate(remaining, y, tie); ok {
			if bound := dualSum/best.Ratio + alloc.Value; bound < alloc.DualBound {
				alloc.DualBound = bound
			}
		}
	}
	if alloc.Stop == StopAllSatisfied && alloc.Value < alloc.DualBound {
		// Every request was satisfied, so the fractional optimum is at
		// most the total value, which the allocation attains: optimal.
		alloc.DualBound = alloc.Value
	}
	return alloc, 0, nil
}

// shortestPaths computes, per iteration, the best candidate over all
// remaining requests. Requests are grouped by source vertex so one
// Dijkstra serves every remaining request sharing that source; the
// trees live in a pathfind.Incremental dirty-source cache, so after the
// first iteration only sources whose tree touches a repriced edge are
// recomputed (in parallel across a bounded worker pool with pooled
// scratches). The reduction is deterministic (request-index order with
// explicit tie-breaking), and — because cached trees are bit-identical
// to recomputations (see pathfind.Incremental) — so is the candidate,
// with or without the cache.
type shortestPaths struct {
	inst    *Instance
	workers int
	full    bool // Options.NoIncremental: recompute all active sources per call
	single  bool // Options.Adaptive: PreferSingle routes slots to single-target serving
	inc     *pathfind.Incremental
	seen    []bool    // per-slot scratch for activeSlots
	fan     [][]int32 // per-slot distinct remaining targets, capped past fanCap
	tree    []bool    // per-slot: answer this iteration from the refreshed tree
}

// fanCap bounds the distinct-target counting in activeSlots: the
// adaptive policy never routes fan-outs beyond the path-cache capacity
// to single-target search, so counting further adds no signal.
const fanCap = 8

func newShortestPaths(inst *Instance, opt *Options) *shortestPaths {
	sources := make([]int, 0, len(inst.Requests))
	for _, r := range inst.Requests {
		sources = append(sources, r.Source)
	}
	sp := &shortestPaths{
		inst:    inst,
		workers: opt.workers(),
		full:    opt.noIncremental(),
		single:  opt.adaptive(),
		inc:     pathfind.NewIncremental(inst.G, sources, opt.pathPool()),
	}
	sp.inc.SetOracle(pathfind.OracleConfig{Landmarks: opt.landmarks()})
	// Each slot only ever answers queries for its own requests' targets,
	// so restrict the recorded edge sets to those paths: repricing an
	// edge used elsewhere in a tree no longer dirties it.
	targets := make(map[int][]int, sp.inc.NumSlots())
	for _, r := range inst.Requests {
		slot, _ := sp.inc.Slot(r.Source)
		targets[slot] = append(targets[slot], r.Target)
	}
	for slot, ts := range targets {
		sp.inc.SetTargets(slot, ts)
	}
	sp.seen = make([]bool, sp.inc.NumSlots())
	if sp.single {
		sp.fan = make([][]int32, sp.inc.NumSlots())
		sp.tree = make([]bool, sp.inc.NumSlots())
	}
	return sp
}

// bestCandidate runs the per-iteration path search: refresh the trees
// of every source that still has remaining requests (recomputing only
// dirty ones; in single-target mode, sources the adaptive policy routes
// to the oracle skip the tree and are answered by the cached early-exit
// search instead), then a deterministic argmin of (d/v)·dist
// over remaining requests. Both query paths return bit-identical
// (distance, path) answers, so the argmin — and hence the allocation —
// does not depend on the mode.
func (sp *shortestPaths) bestCandidate(remaining []bool, y []float64, tie TieBreak) (Candidate, bool) {
	active := sp.activeSlots(remaining)
	if len(active) == 0 && !sp.single {
		return Candidate{}, false
	}
	weight := pathfind.FromSlice(y)
	if sp.full {
		sp.inc.InvalidateAll()
	}
	sp.inc.Refresh(active, weight, sp.workers)
	best := Candidate{Request: -1, Ratio: math.Inf(1)}
	for i, r := range sp.inst.Requests {
		if !remaining[i] {
			continue
		}
		slot, _ := sp.inc.Slot(r.Source)
		var dist float64
		var path func() []int
		if sp.single && !sp.tree[slot] {
			p, d, ok := sp.inc.PathTo(slot, r.Target, weight)
			if !ok {
				continue
			}
			dist = d
			path = func() []int { return p }
		} else {
			tree := sp.inc.Tree(slot)
			if math.IsInf(tree.Dist[r.Target], 1) {
				continue
			}
			dist = tree.Dist[r.Target]
			path = func() []int { p, _ := tree.PathTo(r.Target); return p }
		}
		ratio := r.Demand / r.Value * dist
		cand := Candidate{Request: i, Ratio: ratio}
		switch {
		case best.Request < 0 || ratio < best.Ratio && !ratiosTied(ratio, best.Ratio):
			cand.Path = path()
			best = cand
		case ratiosTied(ratio, best.Ratio):
			cand.Path = path()
			if tie(cand, best) {
				best = cand
			}
		}
	}
	if best.Request < 0 {
		return Candidate{}, false
	}
	return best, true
}

// distTo returns request i's shortest-path length under prices y, and
// whether its target is reachable. It reads the same cache the
// selection does (PathTo answers from the slot's tree when that is
// fresh), so the length is bit-identical to the one bestCandidate would
// compute for the request were it in the pool.
func (sp *shortestPaths) distTo(i int, y []float64) (float64, bool) {
	r := sp.inst.Requests[i]
	slot, _ := sp.inc.Slot(r.Source)
	_, dist, ok := sp.inc.PathTo(slot, r.Target, pathfind.FromSlice(y))
	return dist, ok
}

// invalidate reports a price update on the given edges to the cache.
func (sp *shortestPaths) invalidate(path []int) {
	sp.inc.Invalidate(path)
}

// activeSlots returns the slots needing a full tree this iteration:
// every slot with a remaining request, minus those routed to
// single-target serving (Incremental.PathTo; sp.tree marks the rest).
// The per-slot policy decides from the slot's fan-out and observed
// dirty rate (pathfind.Incremental.PreferSingle). Requests only leave
// the pool, so a slot's fan-out only shrinks over a run.
func (sp *shortestPaths) activeSlots(remaining []bool) []int {
	for i := range sp.seen {
		sp.seen[i] = false
	}
	if sp.single {
		for i := range sp.fan {
			sp.fan[i] = sp.fan[i][:0]
		}
	}
	var live []int
	for i, r := range sp.inst.Requests {
		if !remaining[i] {
			continue
		}
		slot, _ := sp.inc.Slot(r.Source)
		if !sp.seen[slot] {
			sp.seen[slot] = true
			live = append(live, slot)
		}
		if sp.single {
			sp.fan[slot] = appendFan(sp.fan[slot], int32(r.Target))
		}
	}
	if !sp.single {
		return live
	}
	active := live[:0]
	for _, slot := range live {
		toTree := !sp.inc.PreferSingle(slot, len(sp.fan[slot]))
		sp.tree[slot] = toTree
		if toTree {
			active = append(active, slot)
		}
	}
	return active
}

// appendFan records a distinct target, capped just past fanCap
// (counting further carries no policy signal).
func appendFan(fan []int32, t int32) []int32 {
	if len(fan) > fanCap {
		return fan
	}
	for _, x := range fan {
		if x == t {
			return fan
		}
	}
	return append(fan, t)
}
