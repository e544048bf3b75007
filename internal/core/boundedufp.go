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
	// SingleTarget enables the single-target path oracle: a source all
	// of whose remaining requests share one target is answered by a
	// cached early-exit search (pathfind.Incremental.PathTo) instead of
	// a full shortest-path tree. Answers are bit-identical either way,
	// so allocations do not depend on this flag; it pays off when most
	// sources carry a single request — the mechanism's critical-value
	// bisection, whose probes re-solve the instance dozens of times per
	// winner, enables it for exactly that reason.
	SingleTarget bool
	// Adaptive replaces SingleTarget's static classification (lone-target
	// sources to the oracle, everything else to trees) with the per-slot
	// adaptive refresh policy (pathfind.Incremental.PreferSingle): a
	// source fanning out to a few targets routes to single-target
	// searches once its observed dirty rate makes whole-tree refreshes a
	// loss. Answers are bit-identical whichever way a slot is routed, so
	// the flag moves work, never results. Implies single-target serving;
	// SingleTarget need not be set alongside it.
	Adaptive bool
	// Landmarks, if non-nil, prunes the single-target oracle's searches
	// with ALT lower bounds (pathfind.BuildLandmarks). The tables must be
	// built on the instance's frozen graph under a lower bound of the
	// run's weights — the initial prices 1/capacity qualify for every
	// exponential-price run, since prices only rise. The cache
	// re-validates the bound lazily and rebuilds (or, past the violation
	// budget, self-disables) on violation, so a stale table costs speed,
	// never correctness.
	Landmarks *pathfind.Landmarks
	// LandmarkRegistry, if non-nil, is where automatic landmark builds
	// (sessions past the auto-enable size, with Landmarks nil) are
	// shared: structurally identical topologies with the same initial
	// prices reuse one immutable table set instead of rebuilding per
	// session or per shard. The serving stack passes
	// pathfind.SharedLandmarks.
	LandmarkRegistry *pathfind.LandmarkRegistry
	// OnLandmarkRebuild, if non-nil, observes every landmark rebuild
	// with its duration in seconds (see pathfind.OracleConfig.OnRebuild)
	// — the monotone-counter hook the session metrics feed on.
	OnLandmarkRebuild func(seconds float64)
	// Bidirectional routes single-target oracle misses through the
	// bidirectional probe (meet-in-the-middle plus a potential-guided
	// forward rerun) — the mechanism's critical-value bisection enables
	// this for its probe re-solves.
	Bidirectional bool
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

func (o *Options) singleTarget() bool { return o != nil && (o.SingleTarget || o.Adaptive) }

func (o *Options) adaptive() bool { return o != nil && o.Adaptive }

func (o *Options) landmarks() *pathfind.Landmarks {
	if o == nil {
		return nil
	}
	return o.Landmarks
}

func (o *Options) bidirectional() bool { return o != nil && o.Bidirectional }

func (o *Options) landmarkRegistry() *pathfind.LandmarkRegistry {
	if o == nil {
		return nil
	}
	return o.LandmarkRegistry
}

func (o *Options) onLandmarkRebuild() func(float64) {
	if o == nil {
		return nil
	}
	return o.OnLandmarkRebuild
}

// oracleConfig assembles the single-target oracle configuration the
// options describe: landmarks, bidirectional probes and the rebuild
// hook.
func (o *Options) oracleConfig(lm *pathfind.Landmarks) pathfind.OracleConfig {
	return pathfind.OracleConfig{
		Landmarks:     lm,
		Bidirectional: o.bidirectional(),
		OnRebuild:     o.onLandmarkRebuild(),
	}
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
	return boundedUFPLoop(nil, inst, eps, opt, false)
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
	return boundedUFPLoop(nil, inst, eps, opt, true)
}

// SolveUFPRepeat is the Theorem 5.1 calling convention:
// BoundedUFPRepeat(ε/6).
func SolveUFPRepeat(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return SolveUFPRepeatCtx(nil, inst, eps, opt)
}

func boundedUFPLoop(ctx context.Context, inst *Instance, eps float64, opt *Options, repeat bool) (*Allocation, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	b := inst.B()
	if len(inst.Requests) == 0 {
		return &Allocation{Stop: StopAllSatisfied, DualBound: 0}, nil
	}
	if err := checkExponentRange(eps, b); err != nil {
		return nil, err
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
	alloc := &Allocation{DualBound: math.Inf(1)}
	tie := opt.tieBreak()
	sp := newShortestPaths(inst, opt)
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("core: solve cancelled after %d iterations: %w", alloc.Iterations, err)
		}
		if !repeat && numRemaining == 0 {
			alloc.Stop = StopAllSatisfied
			break
		}
		if dualSum > threshold {
			alloc.Stop = StopDualThreshold
			break
		}
		if opt != nil && opt.MaxIterations > 0 && alloc.Iterations >= opt.MaxIterations {
			alloc.Stop = StopIterationLimit
			break
		}
		best, ok := sp.bestCandidate(remaining, y, tie)
		if !ok {
			alloc.Stop = StopNoRoutablePath
			break
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
	return alloc, nil
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
	inst     *Instance
	workers  int
	full     bool // Options.NoIncremental: recompute all active sources per call
	single   bool // single-target serving enabled (SingleTarget or Adaptive)
	adaptive bool // Options.Adaptive: PreferSingle drives the routing
	inc      *pathfind.Incremental
	seen     []bool    // per-slot scratch for activeSlots
	fan      [][]int32 // per-slot distinct remaining targets, capped past fanCap
	tree     []bool    // per-slot: answer this iteration from the refreshed tree
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
		inst:     inst,
		workers:  opt.workers(),
		full:     opt.noIncremental(),
		single:   opt.singleTarget(),
		adaptive: opt.adaptive(),
		inc:      pathfind.NewIncremental(inst.G, sources, opt.pathPool()),
	}
	sp.inc.SetOracle(opt.oracleConfig(opt.landmarks()))
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
// dirty ones; in single-target mode, sources whose remaining requests
// all share one target skip the tree and are answered by the cached
// early-exit oracle instead), then a deterministic argmin of (d/v)·dist
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

// invalidate reports a price update on the given edges to the cache.
func (sp *shortestPaths) invalidate(path []int) {
	sp.inc.Invalidate(path)
}

// activeSlots returns the slots needing a full tree this iteration:
// every slot with a remaining request, minus those routed to
// single-target serving (Incremental.PathTo; sp.tree marks the rest).
// In static single-target mode a slot routes to the oracle exactly
// when its remaining requests all name one target; in adaptive mode
// the per-slot policy decides from the slot's fan-out and observed
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
		fanout := len(sp.fan[slot])
		toTree := fanout > 1
		if sp.adaptive {
			toTree = !sp.inc.PreferSingle(slot, fanout)
		}
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
