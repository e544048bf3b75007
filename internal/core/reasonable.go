package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"truthfulufp/internal/pathfind"
)

// Group identifies requests that share a shortest-path computation: same
// source vertex and same demand (the demand matters when candidate paths
// are filtered by residual capacity).
type Group struct {
	Source int
	Demand float64
}

// State is the engine state visible to priority rules. Flow is the
// per-edge routed demand; prices are derived from it: routing flow f_e
// on edge e under Bounded-UFP's update yields exactly y_e =
// (1/c_e)·e^{εB·f_e/c_e}, so flow is the single source of truth.
type State struct {
	Inst         *Instance
	Flow         []float64
	Eps          float64
	B            float64
	FeasibleOnly bool    // restrict candidate paths to residual-feasible edges
	ActiveGroups []Group // groups with remaining requests this iteration
	Workers      int
	// NoIncremental makes the cached rules recompute every active group's
	// structure each iteration (see EngineOptions.NoIncremental).
	NoIncremental bool
	// Adaptive lets the rules' tree caches pick tree-vs-single-target
	// serving per slot from observed dirty rates and fan-out
	// (see EngineOptions.Adaptive).
	Adaptive bool
	// Landmarks builds ALT landmark tables for the additive tree caches'
	// single-target searches (see EngineOptions.Landmarks).
	Landmarks bool
	// Bidirectional routes the caches' single-target misses through the
	// bidirectional probe (see EngineOptions.Bidirectional).
	Bidirectional bool
	// Pool supplies the Dijkstra/bottleneck scratch buffers shared by the
	// rules' per-group path queries. IterativePathMin always sets it; the
	// rules fall back to a package-shared pool when driven by hand.
	Pool *pathfind.Pool
}

// sharedRulePool backs State.Pool for callers that drive rules by hand
// without configuring one.
var sharedRulePool = pathfind.NewPool()

func (st *State) pool() *pathfind.Pool {
	if st.Pool != nil {
		return st.Pool
	}
	return sharedRulePool
}

const feasTol = 1e-9

// ExpWeight is the paper's exponential price of an edge,
// (1/c_e)·e^{εB·f_e/c_e}, with residual-capacity filtering for the given
// demand when FeasibleOnly is set.
func (st *State) ExpWeight(demand float64) pathfind.WeightFunc {
	g := st.Inst.G
	return func(e int) float64 {
		c := g.Edge(e).Capacity
		if st.FeasibleOnly && st.Flow[e]+demand > c+feasTol {
			return math.Inf(1)
		}
		return math.Exp(st.Eps*st.B*st.Flow[e]/c) / c
	}
}

// UnitWeight assigns every usable edge weight 1 (hop counting), with
// residual filtering when FeasibleOnly is set.
func (st *State) UnitWeight(demand float64) pathfind.WeightFunc {
	g := st.Inst.G
	return func(e int) float64 {
		if st.FeasibleOnly && st.Flow[e]+demand > g.Edge(e).Capacity+feasTol {
			return math.Inf(1)
		}
		return 1
	}
}

// Rule is a "reasonable function" (Definition 3.9): a priority over
// candidate paths. The engine minimizes (d_r/v_r)·length where length is
// the rule's raw path aggregate, matching the paper's priority shapes
// h, h1, h2 which all carry the d/v prefactor.
//
// Prepare is called once per iteration (groups in st.ActiveGroups);
// BestLen must return, for one group and target, a path minimizing the
// rule's raw length. BestLen is called from a single goroutine; Prepare
// may parallelize internally (the treeCache-backed rules refresh dirty
// groups across State.Workers goroutines). Rules that additionally
// implement pathInvalidator are told which edges the engine repriced
// after each admission, which lets them keep caches across iterations.
type Rule interface {
	Name() string
	Prepare(st *State)
	BestLen(st *State, g Group, target int) (path []int, length float64, ok bool)
}

// pathInvalidator is the optional Rule extension behind the
// dirty-source caches: after routing a path and updating st.Flow, the
// engine reports the path's edges so the rule can invalidate exactly
// the cached trees that used them.
type pathInvalidator interface {
	invalidatePath(st *State, path []int)
}

// sharedDemandKey is the treeCache key when the weight function does
// not depend on the group demand (no residual filtering): all demand
// classes share one tree cache. Demands are strictly positive, so 0
// cannot collide with a real class.
const sharedDemandKey = 0

// treeCache is the incremental path-oracle store shared by every
// search-backed rule: additive Dijkstra trees (ExpRule, HopRule),
// bottleneck trees (BottleneckRule), and hop-bounded Bellman-Ford
// tables (LogHopsRule), selected by kind. Structures are cached across
// engine iterations in a pathfind.Incremental per demand class (the
// residual-capacity filter makes weights demand-dependent, so classes
// cannot share structures when FeasibleOnly is set) and only dirtied
// ones are recomputed. Cached structures are bit-identical to
// recomputation (see pathfind.Incremental), so engine outcomes do not
// depend on caching; State.NoIncremental forces the full recompute for
// benchmarking and verification.
type treeCache struct {
	kind    pathfind.TreeKind
	maxHops int    // KindHopBounded table depth (0 = vertices - 1)
	st      *State // identifies the run; a new engine run rebuilds the cache
	incs    map[float64]*pathfind.Incremental
	// single[k][slot] marks slots routed to the single-target path
	// oracle this iteration (Incremental.PathTo, tree kinds only): those
	// skip tree refreshes entirely. Statically that is the slots whose
	// whole declared target universe is one vertex; with State.Adaptive
	// the per-slot policy also claims small-fan-out slots whose trees
	// dirty nearly every iteration. fanout[k][slot] is the slot's
	// distinct declared-target count (capped just past the policy
	// ceiling); weightOf is the latest prepare's weight factory, which
	// the oracle queries lazily.
	single   map[float64][]bool
	fanout   map[float64][]int
	weightOf func(demand float64) pathfind.WeightFunc
}

func (c *treeCache) key(st *State, demand float64) float64 {
	if st.FeasibleOnly {
		return demand
	}
	return sharedDemandKey
}

// prepare (re)builds the per-class caches for a new run and refreshes
// the trees of the active groups under the current weights. weightOf
// maps a demand class to its weight function.
func (c *treeCache) prepare(st *State, weightOf func(demand float64) pathfind.WeightFunc) {
	c.weightOf = weightOf
	if c.st != st {
		// New engine run: groups only shrink within a run, so the first
		// iteration's ActiveGroups is the full source universe per class.
		c.st = st
		c.incs = make(map[float64]*pathfind.Incremental)
		c.single = make(map[float64][]bool)
		c.fanout = make(map[float64][]int)
		byKey := make(map[float64][]int)
		for _, g := range st.ActiveGroups {
			k := c.key(st, g.Demand)
			byKey[k] = append(byKey[k], g.Source)
		}
		for k, sources := range byKey {
			inc := pathfind.NewIncrementalKind(st.Inst.G, c.kind, sources, st.pool(), c.maxHops)
			// Weights within a run only rise (flow only grows, and the
			// residual filter only pushes edges to +Inf), so tables built
			// from the run's first weights stay valid lower bounds.
			// Additive caches take the ALT tables, bottleneck caches the
			// minimax-carrying ones. Builds go through the
			// shared registry: a run on a topology another session or a
			// mechanism probe already solved — at the same weight snapshot,
			// which at zero flow is exactly the initial prices —
			// fingerprint-matches and reuses its tables.
			var lm *pathfind.Landmarks
			if st.Landmarks && c.kind != pathfind.KindHopBounded {
				lm = pathfind.SharedLandmarks.Get(
					st.Inst.G, pathfind.DefaultLandmarkCount, weightOf(k),
					c.kind == pathfind.KindBottleneck)
			}
			inc.SetOracle(pathfind.OracleConfig{
				Landmarks:     lm,
				Bidirectional: st.Bidirectional,
			})
			targets := make(map[int][]int)
			// Restrict each slot's recorded edges to the paths its own
			// requests can query (BestLen only ever asks for a group's own
			// targets), so unrelated tree churn does not dirty it. The
			// instance's request list is the target universe; remaining
			// requests only shrink within a run.
			for _, r := range st.Inst.Requests {
				if c.key(st, r.Demand) != k {
					continue
				}
				if slot, ok := inc.Slot(r.Source); ok {
					targets[slot] = append(targets[slot], r.Target)
				}
			}
			single := make([]bool, inc.NumSlots())
			fan := make([]int, inc.NumSlots())
			for slot, ts := range targets {
				inc.SetTargets(slot, ts)
				fan[slot] = distinctTargets(ts)
			}
			c.incs[k] = inc
			c.single[k] = single
			c.fanout[k] = fan
		}
	}
	if st.NoIncremental {
		// Full-recompute mode: every structure and cached path is
		// recomputed this iteration (including the single-target slots the
		// refresh loop below never touches).
		for _, inc := range c.incs {
			inc.InvalidateAll()
		}
	}
	active := make(map[float64][]int, len(c.incs))
	for _, g := range st.ActiveGroups {
		k := c.key(st, g.Demand)
		inc := c.incs[k]
		var slot int
		var ok bool
		if inc != nil {
			slot, ok = inc.Slot(g.Source)
		}
		if !ok {
			// A group this run never saw (callers driving Prepare by hand):
			// fall back to a full rebuild with the current universe.
			c.st = nil
			c.prepare(st, weightOf)
			return
		}
		if c.routeSingle(st, k, slot) {
			continue // served by the path oracle, no tree to refresh
		}
		active[k] = append(active[k], slot)
	}
	for k, slots := range active {
		c.incs[k].Refresh(slots, weightOf(k), st.Workers)
	}
}

// routeSingle decides — and records in c.single for query — whether a
// slot answers this iteration through the single-target path oracle
// instead of a refreshed tree. Static mode routes exactly the
// lone-target slots; adaptive mode asks the cache's per-slot policy
// (fan-out versus observed dirty rate). Either way the answers are
// bit-identical, so the choice moves work, never outcomes.
func (c *treeCache) routeSingle(st *State, k float64, slot int) bool {
	if c.kind == pathfind.KindHopBounded {
		return false
	}
	fan := c.fanout[k][slot]
	single := fan == 1
	if st.Adaptive {
		single = c.incs[k].PreferSingle(slot, fan)
	}
	c.single[k][slot] = single
	return single
}

// distinctTargets counts distinct declared targets, capped just past
// the adaptive policy's fan-out ceiling (all larger fan-outs route to
// trees, so exact counts past it carry no signal).
func distinctTargets(ts []int) int {
	const limit = 8
	var seen []int
	for _, t := range ts {
		dup := false
		for _, x := range seen {
			if x == t {
				dup = true
				break
			}
		}
		if !dup {
			seen = append(seen, t)
			if len(seen) > limit {
				break
			}
		}
	}
	return len(seen)
}

// query answers a single-target group through the path oracle
// (Incremental.PathTo): served reports whether the group's slot is
// oracle-backed; when it is, (path, length, ok) is the bit-identical
// equivalent of the tree read the multi-target slots perform.
func (c *treeCache) query(st *State, g Group, target int) (path []int, length float64, ok, served bool) {
	k := c.key(st, g.Demand)
	inc := c.incs[k]
	if inc == nil {
		return nil, 0, false, false
	}
	slot, okSlot := inc.Slot(g.Source)
	if !okSlot || !c.single[k][slot] {
		return nil, 0, false, false
	}
	p, d, ok := inc.PathTo(slot, target, c.weightOf(k))
	return p, d, ok, true
}

// tree returns the cached tree for a group (valid after prepare).
func (c *treeCache) tree(st *State, g Group) *pathfind.Tree {
	inc := c.incs[c.key(st, g.Demand)]
	slot, _ := inc.Slot(g.Source)
	return inc.Tree(slot)
}

// table returns the cached hop table for a group (valid after prepare;
// KindHopBounded caches only).
func (c *treeCache) table(st *State, g Group) *pathfind.HopTable {
	inc := c.incs[c.key(st, g.Demand)]
	slot, _ := inc.Slot(g.Source)
	return inc.Table(slot)
}

// invalidate dirties every cached tree using one of the edges.
func (c *treeCache) invalidate(path []int) {
	for _, inc := range c.incs {
		inc.Invalidate(path)
	}
}

// ExpRule is the paper's function h(p) = (d/v)·Σ_{e∈p} (1/c_e)e^{εB·f_e/c_e}
// — the rule that makes IterativePathMin coincide with Bounded-UFP.
type ExpRule struct {
	cache treeCache
}

// Name implements Rule.
func (r *ExpRule) Name() string { return "exp" }

// Prepare implements Rule.
func (r *ExpRule) Prepare(st *State) {
	r.cache.prepare(st, func(d float64) pathfind.WeightFunc { return st.ExpWeight(d) })
}

// BestLen implements Rule.
func (r *ExpRule) BestLen(st *State, g Group, target int) ([]int, float64, bool) {
	if p, d, ok, served := r.cache.query(st, g, target); served {
		return p, d, ok
	}
	t := r.cache.tree(st, g)
	if math.IsInf(t.Dist[target], 1) {
		return nil, 0, false
	}
	p, _ := t.PathTo(target)
	return p, t.Dist[target], true
}

// invalidatePath implements pathInvalidator: exponential prices move
// with the flow on the routed edges, dirtying any tree that used them.
func (r *ExpRule) invalidatePath(st *State, path []int) {
	r.cache.invalidate(path)
}

// HopRule minimizes (d/v)·(number of edges): fewest-hops-first. Under
// unit demands/values and uniform capacities its priority depends only on
// the hop count, so it is reasonable per Definition 3.9.
type HopRule struct {
	cache treeCache
}

// Name implements Rule.
func (r *HopRule) Name() string { return "hops" }

// Prepare implements Rule.
func (r *HopRule) Prepare(st *State) {
	r.cache.prepare(st, func(d float64) pathfind.WeightFunc { return st.UnitWeight(d) })
}

// BestLen implements Rule.
func (r *HopRule) BestLen(st *State, g Group, target int) ([]int, float64, bool) {
	if p, d, ok, served := r.cache.query(st, g, target); served {
		return p, d, ok
	}
	t := r.cache.tree(st, g)
	if math.IsInf(t.Dist[target], 1) {
		return nil, 0, false
	}
	p, _ := t.PathTo(target)
	return p, t.Dist[target], true
}

// invalidatePath implements pathInvalidator. Unit weights ignore flow
// entirely, so without residual filtering the cached trees stay exact
// across the whole run and nothing is ever dirtied.
func (r *HopRule) invalidatePath(st *State, path []int) {
	if st.FeasibleOnly {
		r.cache.invalidate(path)
	}
}

// LogHopsRule is the paper's h1(p) = ln(1+|p|)·h(p): the exponential
// price length scaled by a hop-count factor, mildly biased toward paths
// with fewer edges. Minimization runs over a hop-bounded Bellman-Ford
// table: min over k of ln(1+k)·(min exp-length among paths of <= k
// edges). Tables live in the kind-generic dirty-source cache
// (pathfind.KindHopBounded): across iterations only tables whose
// recorded predecessor edges were repriced are recomputed, and
// recomputation reuses the table's rows (BellmanFordHopsInto), so
// steady-state iterations neither allocate tables nor rebuild clean
// ones.
type LogHopsRule struct {
	cache treeCache
	// MaxHops caps the table depth (0 = number of vertices - 1).
	MaxHops int
}

// Name implements Rule.
func (r *LogHopsRule) Name() string { return "log-hops" }

// Prepare implements Rule.
func (r *LogHopsRule) Prepare(st *State) {
	r.cache.kind = pathfind.KindHopBounded
	r.cache.maxHops = r.MaxHops
	r.cache.prepare(st, func(d float64) pathfind.WeightFunc { return st.ExpWeight(d) })
}

// invalidatePath implements pathInvalidator: exponential prices move
// with the flow on the routed edges, dirtying any table that recorded
// them as predecessors.
func (r *LogHopsRule) invalidatePath(st *State, path []int) {
	r.cache.invalidate(path)
}

// BestLen implements Rule.
func (r *LogHopsRule) BestLen(st *State, g Group, target int) ([]int, float64, bool) {
	t := r.cache.table(st, g)
	bestK := -1
	best := math.Inf(1)
	for k := 1; k <= t.MaxHops; k++ {
		d := t.Dist[k][target]
		if math.IsInf(d, 1) {
			continue
		}
		if v := math.Log(1+float64(k)) * d; v < best {
			best = v
			bestK = k
		}
	}
	if bestK < 0 {
		return nil, 0, false
	}
	p, ok := t.PathTo(target, bestK)
	if !ok {
		return nil, 0, false
	}
	return p, best, true
}

// BottleneckRule minimizes (d/v)·max_{e∈p} (1/c_e)e^{εB·f_e/c_e}: route
// along the path whose most expensive edge is cheapest ("least congested
// bottleneck"). Reasonable per Definition 3.9: pointwise-dominated flow
// vectors cannot have a larger maximum. Trees live in the kind-generic
// dirty-source cache (pathfind.KindBottleneck, canonical lexicographic
// (minimax, hops) tie-break): across iterations only trees using a
// repriced edge are recomputed, on pooled scratches into reusable tree
// buffers, so steady-state iterations allocate neither heaps nor trees.
type BottleneckRule struct {
	cache treeCache
}

// Name implements Rule.
func (r *BottleneckRule) Name() string { return "bottleneck" }

// Prepare implements Rule.
func (r *BottleneckRule) Prepare(st *State) {
	r.cache.kind = pathfind.KindBottleneck
	r.cache.prepare(st, func(d float64) pathfind.WeightFunc { return st.ExpWeight(d) })
}

// invalidatePath implements pathInvalidator: exponential prices move
// with the flow on the routed edges, dirtying any tree that used them.
func (r *BottleneckRule) invalidatePath(st *State, path []int) {
	r.cache.invalidate(path)
}

// BestLen implements Rule.
func (r *BottleneckRule) BestLen(st *State, g Group, target int) ([]int, float64, bool) {
	if p, d, ok, served := r.cache.query(st, g, target); served {
		return p, d, ok
	}
	t := r.cache.tree(st, g)
	if math.IsInf(t.Dist[target], 1) {
		return nil, 0, false
	}
	p, _ := t.PathTo(target)
	return p, t.Dist[target], true
}

// ProductRule is the paper's h2(p) = (d/v)·Π_{e∈p} f_e/c_e, listed by the
// paper as reasonable "although it is not clear why anyone would like to
// use it". Since the product is not additive it is minimized by explicit
// enumeration of simple paths, so this rule is only usable on small
// graphs; PathLimit caps the enumeration (default 10000).
type ProductRule struct {
	PathLimit int
}

// Name implements Rule.
func (r *ProductRule) Name() string { return "product" }

// Prepare implements Rule.
func (r *ProductRule) Prepare(*State) {}

// BestLen implements Rule.
func (r *ProductRule) BestLen(st *State, g Group, target int) ([]int, float64, bool) {
	limit := r.PathLimit
	if limit <= 0 {
		limit = 10000
	}
	gph := st.Inst.G
	paths := pathfind.SimplePaths(gph, g.Source, target, limit)
	best := math.Inf(1)
	var bestPath []int
	for _, p := range paths {
		prod := 1.0
		feasible := true
		for _, e := range p {
			c := gph.Edge(e).Capacity
			if st.FeasibleOnly && st.Flow[e]+g.Demand > c+feasTol {
				feasible = false
				break
			}
			prod *= st.Flow[e] / c
		}
		if !feasible {
			continue
		}
		if prod < best || (prod == best && bestPath == nil) {
			best = prod
			bestPath = p
		}
	}
	if bestPath == nil {
		return nil, 0, false
	}
	return bestPath, best, true
}

// EngineOptions configure IterativePathMin.
type EngineOptions struct {
	// Rule is the reasonable priority function (required).
	Rule Rule
	// Eps is the accuracy parameter used by price-based rules and by the
	// dual-threshold stop (required by those; ignored by HopRule with
	// capacity stop).
	Eps float64
	// FeasibleOnly restricts candidate paths to residual-feasible edges;
	// combined with the default stop this yields the "route until nothing
	// fits" behavior assumed by the lower-bound proofs (footnote 2).
	FeasibleOnly bool
	// UseDualStop enables Algorithm 1's main-loop guard: stop once
	// Σ_e c_e·y_e(f) > e^{ε(B-1)}. At least one of FeasibleOnly and
	// UseDualStop must be set, otherwise the engine could overload edges.
	UseDualStop bool
	// TieBreak resolves ratio ties between candidates (default: smaller
	// request index).
	TieBreak TieBreak
	// MaxIterations caps the loop (0 = unlimited).
	MaxIterations int
	// Workers bounds parallelism in per-iteration path computations.
	Workers int
	// NoIncremental disables the dirty-source caches of the built-in
	// rules: every iteration recomputes every active group's structure
	// from scratch. Allocations are identical either way — cached
	// structures are bit-identical to recomputation — so this exists for
	// benchmarking the caches and as an escape hatch.
	NoIncremental bool
	// Adaptive replaces the caches' static tree-vs-single-target routing
	// (lone-target slots only) with the per-slot policy driven by
	// observed dirty rates and fan-out. Allocations are identical either
	// way — the single-target oracle is bit-identical to tree reads.
	Adaptive bool
	// Landmarks builds ALT landmark tables per demand class at the first
	// iteration — shared through pathfind.SharedLandmarks across runs on
	// the same topology and weight snapshot — and uses them to prune the
	// caches' single-target searches: additive bounds for the additive
	// rules, minimax bounds for the bottleneck rule. Valid because
	// within-run weights only rise; answers stay bit-identical.
	Landmarks bool
	// Bidirectional routes the caches' single-target misses through the
	// bidirectional (forward+backward) probe; bit-identical answers.
	Bidirectional bool
	// PathPool, if non-nil, supplies the scratch buffers for the rules'
	// path queries (see Options.PathPool); nil uses a shared pool.
	PathPool *pathfind.Pool
}

// IterativePathMin runs a reasonable iterative path minimizing algorithm
// (Definition 3.10): repeatedly select, among all paths of unselected
// requests, one minimizing (d_r/v_r)·Rule-length, route it, and update
// the flow. With ExpRule, UseDualStop and no feasibility filtering this
// is exactly Bounded-UFP. See IterativePathMinCtx for the cancellable
// form.
func IterativePathMin(inst *Instance, opt EngineOptions) (*Allocation, error) {
	return iterativePathMin(nil, inst, opt)
}

func iterativePathMin(ctx context.Context, inst *Instance, opt EngineOptions) (*Allocation, error) {
	if opt.Rule == nil {
		return nil, errors.New("core: IterativePathMin requires a Rule")
	}
	if !opt.FeasibleOnly && !opt.UseDualStop {
		return nil, errors.New("core: IterativePathMin requires FeasibleOnly or UseDualStop (otherwise capacities can be violated)")
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if opt.UseDualStop || usesPrices(opt.Rule) {
		if err := validateEps(opt.Eps); err != nil {
			return nil, err
		}
		if err := checkExponentRange(opt.Eps, inst.B()); err != nil {
			return nil, err
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	pool := opt.PathPool
	if pool == nil {
		pool = sharedRulePool
	}
	st := &State{
		Inst:          inst,
		Flow:          make([]float64, inst.G.NumEdges()),
		Eps:           opt.Eps,
		B:             inst.B(),
		FeasibleOnly:  opt.FeasibleOnly,
		Workers:       workers,
		NoIncremental: opt.NoIncremental,
		Adaptive:      opt.Adaptive,
		Landmarks:     opt.Landmarks,
		Bidirectional: opt.Bidirectional,
		Pool:          pool,
	}
	tie := opt.TieBreak
	if tie == nil {
		tie = func(a, b Candidate) bool { return a.Request < b.Request }
	}
	remaining := make([]bool, len(inst.Requests))
	numRemaining := len(inst.Requests)
	for i := range remaining {
		remaining[i] = true
	}
	threshold := math.Exp(opt.Eps * (st.B - 1))
	alloc := &Allocation{DualBound: math.Inf(1)}
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("core: iterative path-min cancelled after %d iterations: %w", alloc.Iterations, err)
		}
		if numRemaining == 0 {
			alloc.Stop = StopAllSatisfied
			break
		}
		if opt.UseDualStop && dualValue(st) > threshold {
			alloc.Stop = StopDualThreshold
			break
		}
		if opt.MaxIterations > 0 && alloc.Iterations >= opt.MaxIterations {
			alloc.Stop = StopIterationLimit
			break
		}
		st.ActiveGroups = activeGroups(inst, remaining)
		opt.Rule.Prepare(st)
		best := Candidate{Request: -1, Ratio: math.Inf(1)}
		for i, r := range inst.Requests {
			if !remaining[i] {
				continue
			}
			path, length, ok := opt.Rule.BestLen(st, Group{r.Source, r.Demand}, r.Target)
			if !ok {
				continue
			}
			cand := Candidate{Request: i, Ratio: r.Demand / r.Value * length, Path: path}
			switch {
			case best.Request < 0 || cand.Ratio < best.Ratio && !ratiosTied(cand.Ratio, best.Ratio):
				best = cand
			case ratiosTied(cand.Ratio, best.Ratio) && tie(cand, best):
				best = cand
			}
		}
		if best.Request < 0 {
			alloc.Stop = StopNoRoutablePath
			break
		}
		d := inst.Requests[best.Request].Demand
		for _, e := range best.Path {
			st.Flow[e] += d
		}
		if inv, ok := opt.Rule.(pathInvalidator); ok {
			inv.invalidatePath(st, best.Path)
		}
		alloc.Routed = append(alloc.Routed, Routed{Request: best.Request, Path: best.Path})
		alloc.Value += inst.Requests[best.Request].Value
		alloc.Iterations++
		remaining[best.Request] = false
		numRemaining--
	}
	if alloc.Stop == StopAllSatisfied && alloc.Value < alloc.DualBound {
		alloc.DualBound = alloc.Value
	}
	return alloc, nil
}

func usesPrices(r Rule) bool {
	switch r.(type) {
	case *HopRule, *ProductRule:
		return false
	}
	return true
}

// dualValue computes Σ_e c_e·y_e(f) = Σ_e e^{εB·f_e/c_e}.
func dualValue(st *State) float64 {
	sum := 0.0
	g := st.Inst.G
	for e := 0; e < g.NumEdges(); e++ {
		sum += math.Exp(st.Eps * st.B * st.Flow[e] / g.Edge(e).Capacity)
	}
	return sum
}

func activeGroups(inst *Instance, remaining []bool) []Group {
	seen := make(map[Group]bool)
	var groups []Group
	for i, r := range inst.Requests {
		if !remaining[i] {
			continue
		}
		g := Group{r.Source, r.Demand}
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	return groups
}

func defaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// AllRules returns one fresh instance of every built-in reasonable rule,
// for sweeps over the family in the lower-bound experiments. When
// includeEnumerating is false the enumeration-based ProductRule (usable
// only on small graphs) is omitted.
func AllRules(includeEnumerating bool) []Rule {
	rules := []Rule{&ExpRule{}, &HopRule{}, &LogHopsRule{}, &BottleneckRule{}}
	if includeEnumerating {
		rules = append(rules, &ProductRule{})
	}
	return rules
}
