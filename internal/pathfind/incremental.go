package pathfind

import (
	"fmt"
	"math"
	"sync"
	"time"

	"truthfulufp/internal/graph"
)

// Incremental is a dirty-source cache of single-source path structures
// over a fixed set of sources, generic over the structure's TreeKind:
// additive Dijkstra trees, bottleneck (minimax) trees, or hop-bounded
// Bellman-Ford tables. The primal-dual solvers raise prices only on the
// edges of the one path they admit per iteration, so between iterations
// most sources' structures stay optimal; Incremental records which
// edges each cached structure uses and recomputes only the sources
// dirtied by an update, dropping the per-iteration cost from
// O(S·search) to O(dirty·search).
//
// Correctness of reusing a clean structure rests on three
// caller-guaranteed invariants, all satisfied by exponential-price
// primal-dual loops:
//
//  1. Edge weights never decrease between Refresh calls (prices only go
//     up; residual filtering only flips a weight to +Inf).
//  2. Every edge whose weight may have changed is passed to Invalidate
//     before the next Refresh.
//  3. The weight of an edge depends only on that edge's own state.
//
// Under (1)-(3) a cached structure none of whose used edges changed is
// still optimal: its own witness paths are unchanged in length while
// every other path only got longer. Because each kind's tie-break is
// canonical (see TreeKind) — the structure is a pure function of the
// weights, not of relaxation order — the reused structure is not merely
// *a* valid answer but bit-identical to what a full recomputation would
// return: a clean vertex's set of optimum-achieving predecessor arcs
// can only lose changed (non-used) arcs, never its recorded winner.
// Solvers built on Incremental therefore produce exactly the
// allocations of their full-recompute counterparts, for every kind.
//
// On top of the per-source structures, tree-kind caches answer
// single-target queries through PathTo, backed by an early-exit search
// and a small per-slot list of cached (target, path) entries, each with
// its own used-edge bitset: a cached path whose edges did not change is
// still canonical-optimal under (1)-(3) by the same argument. This is
// what the mechanism's critical-value bisection and the session API's
// streamed admits run on — their queries are dominated by sources
// carrying one or a few requests, for which materializing a whole tree
// is wasted work. Additive caches can additionally be given a
// single-target oracle (SetOracle): ALT landmark pruning and/or
// bidirectional probes, both bit-identical to the plain early-exit
// search, so flipping them on or off never changes an answer.
//
// An Incremental is driven from one goroutine (Refresh parallelizes
// internally); the cached structures are owned by the cache and valid
// until the next Refresh.
type Incremental struct {
	g       *graph.Graph
	kind    TreeKind
	maxHops int // KindHopBounded table depth
	pool    *Pool
	sources []int
	slot    map[int]int
	trees   []*Tree     // KindAdditive, KindBottleneck
	tables  []*HopTable // KindHopBounded
	fresh   []bool      // structure computed and not dirtied since
	uses    [][]uint64  // per-slot bitset over edge IDs used by the structure
	words   int
	// targets[slot], when non-nil, restricts the slot's recorded edge
	// set to the tree paths reaching those targets (see SetTargets).
	targets [][]int32
	// activeStamp/activeGen deduplicate Refresh's active list without
	// allocating (generation-stamped, like Scratch's visited marks).
	activeStamp []uint32
	activeGen   uint32

	// Single-target path cache (tree kinds): per slot, up to ptCapacity
	// cached (target, path) entries, most recently used first.
	pt [][]ptEntry

	// Single-target oracle (KindAdditive, see SetOracle): shared ALT
	// landmark tables plus the lazily checked lower-bound guard, and the
	// bidirectional-probe switch. lmPending holds edges invalidated
	// since the last bound check — under the cache's contract those are
	// the only edges whose weights may have changed, so draining it
	// (lmUsable) re-validates the bound at O(changed) instead of
	// O(edges).
	lm         *Landmarks
	lmOK       bool
	lmCheckAll bool
	lmPending  []int32
	bidi       bool

	// Landmark lifecycle: a lower-bound violation rebuilds the tables
	// against the current weights, up to DefaultStaleViolations times
	// since SetOracle (see lmViolated).
	onRebuild      func(seconds float64)
	lmRebuilds     int64 // landmark table rebuilds (violation-triggered)
	lmViolRebuilds int   // violation-triggered rebuilds since SetOracle

	// Per-slot adaptive-policy counters: how often the slot was demanded
	// (Refresh-active or queried) and how often it was dirty when
	// demanded. PreferSingle turns these into a refresh-policy decision
	// against policyWarmup and policyCostRatio, which hold the package
	// constants warmupDemands and singleCostRatio (tests override them).
	slotDemand      []int64
	slotDirty       []int64
	policyWarmup    int64
	policyCostRatio float64

	recomputed int64 // structures rebuilt by Refresh
	reused     int64 // active structures served from cache
	refreshes  int64 // Refresh calls
	ptHits     int64 // PathTo answers served from a fresh tree or cached path
	ptMisses   int64 // PathTo answers that ran an early-exit search

	altSearches  int64 // single-target searches that ran ALT- or bidi-pruned
	altTouched   int64 // vertices touched by those searches
	altBudget    int64 // vertices a full tree build would touch instead
	bidiProbes   int64 // bidirectional probes run
	bidiMeets    int64 // probes whose frontiers bridged (reachable target)
	policyTree   int64 // PreferSingle decisions to refresh the tree
	policySingle int64 // PreferSingle decisions to route to single-target search
	lmViolations int64 // landmark lower-bound violations observed
}

// ptEntry is one cached single-target answer: the canonical path (or
// cached unreachability) from the slot's source to target, with the
// bitset of edges whose invalidation voids it.
type ptEntry struct {
	target int32
	fresh  bool
	ok     bool
	dist   float64
	path   []int
	uses   []uint64
}

// ptCapacity is the per-slot path-entry capacity. Sessions admitting
// one source to a handful of targets hit fully within it, and the
// adaptive policy routes fan-outs beyond it to tree refreshes anyway.
const ptCapacity = 4

// NewIncremental builds an additive (Dijkstra) cache for the given
// source vertices — the historical constructor, equivalent to
// NewIncrementalKind(g, KindAdditive, sources, pool, 0).
func NewIncremental(g *graph.Graph, sources []int, pool *Pool) *Incremental {
	return NewIncrementalKind(g, KindAdditive, sources, pool, 0)
}

// NewIncrementalKind builds a cache of the given kind for the given
// source vertices (duplicates are collapsed; slot order follows first
// occurrence). The graph is frozen as a side effect so every
// recomputation runs on the CSR fast path. A nil pool gets a private
// one. maxHops is the KindHopBounded table depth (<= 0 means number of
// vertices - 1, the all-simple-paths horizon) and is ignored by the
// tree kinds.
func NewIncrementalKind(g *graph.Graph, kind TreeKind, sources []int, pool *Pool, maxHops int) *Incremental {
	g.Freeze()
	if pool == nil {
		pool = NewPool()
	}
	if maxHops <= 0 {
		maxHops = g.NumVertices() - 1
	}
	inc := &Incremental{
		g:               g,
		kind:            kind,
		maxHops:         maxHops,
		pool:            pool,
		slot:            make(map[int]int, len(sources)),
		words:           (g.NumEdges() + 63) / 64,
		policyWarmup:    warmupDemands,
		policyCostRatio: singleCostRatio,
	}
	for _, s := range sources {
		if _, dup := inc.slot[s]; dup {
			continue
		}
		inc.slot[s] = len(inc.sources)
		inc.sources = append(inc.sources, s)
	}
	n := len(inc.sources)
	if kind == KindHopBounded {
		inc.tables = make([]*HopTable, n)
	} else {
		inc.trees = make([]*Tree, n)
	}
	inc.fresh = make([]bool, n)
	inc.uses = make([][]uint64, n)
	inc.targets = make([][]int32, n)
	inc.activeStamp = make([]uint32, n)
	inc.slotDemand = make([]int64, n)
	inc.slotDirty = make([]int64, n)
	if kind != KindHopBounded {
		inc.pt = make([][]ptEntry, n)
	}
	return inc
}

// OracleConfig configures a tree-kind cache's single-target oracle.
type OracleConfig struct {
	// Landmarks, when non-nil, prunes PathTo's early-exit searches with
	// ALT lower bounds — additive bounds on KindAdditive caches, minimax
	// bounds on KindBottleneck caches (the set must carry the minimax
	// tables, Landmarks.WithBottleneck, or it is ignored there). The
	// tables must have been built on the same frozen topology and on a
	// lower bound of every weight function the cache will see; the cache
	// re-validates the bound lazily against invalidated edges and, if it
	// is ever violated (counting CacheStats.LandmarkViolations), rebuilds
	// the tables from the current weights — or self-disables once the
	// DefaultStaleViolations budget is spent — so a contract slip
	// degrades speed, not answers. Under the solvers' monotone prices no
	// violation ever happens, so the tables are built once and kept.
	Landmarks *Landmarks
	// Bidirectional routes PathTo misses through the bidirectional
	// probe (forward/backward meet plus a potential-guided forward
	// rerun), which the mechanism's critical-value bisection enables.
	// KindAdditive only. The graph's reverse adjacency is frozen as a
	// side effect.
	Bidirectional bool
	// OnRebuild, when non-nil, is called after every landmark rebuild
	// with the rebuild's wall-clock duration in seconds — the serving
	// stack's hook for monotone rebuild counters and latency histograms.
	OnRebuild func(seconds float64)
}

// SetOracle installs the single-target oracle configuration on a
// tree-kind cache — ALT landmarks and/or bidirectional probes on
// KindAdditive, minimax-ALT landmarks on KindBottleneck (a set without
// the minimax tables is ignored there, as is Bidirectional, which has
// no bottleneck form). KindHopBounded ignores it. Every oracle path is
// bit-identical to the plain search, so SetOracle never invalidates
// cached state and may be called at any point between queries.
func (inc *Incremental) SetOracle(cfg OracleConfig) {
	if inc.kind == KindHopBounded {
		return
	}
	inc.onRebuild = cfg.OnRebuild
	lm := cfg.Landmarks
	if inc.kind == KindBottleneck && lm != nil && !lm.HasBottleneck() {
		lm = nil // bottleneck goal-direction needs the minimax tables
	}
	if lm != nil && lm.csr != inc.g.Frozen() {
		panic("pathfind: SetOracle landmarks built for a different frozen topology")
	}
	inc.lm = lm
	inc.lmOK = lm != nil
	inc.lmCheckAll = false
	inc.lmPending = inc.lmPending[:0]
	inc.lmViolRebuilds = 0
	inc.bidi = cfg.Bidirectional && inc.kind == KindAdditive
	if inc.bidi {
		inc.g.FreezeReverse()
	}
}

// AddSource appends a source vertex to the cache and returns its slot
// (the existing slot if the source is already present). The new slot
// starts dirty, so the next Refresh or PathTo touching it computes its
// structure from scratch; existing slots are untouched. This is what
// lets a long-lived session cache grow with the traffic it serves
// instead of fixing its source universe at construction. Like Refresh,
// it must be driven from the cache's single driving goroutine.
func (inc *Incremental) AddSource(source int) int {
	if s, ok := inc.slot[source]; ok {
		return s
	}
	s := len(inc.sources)
	inc.slot[source] = s
	inc.sources = append(inc.sources, source)
	if inc.kind == KindHopBounded {
		inc.tables = append(inc.tables, nil)
	} else {
		inc.trees = append(inc.trees, nil)
	}
	inc.fresh = append(inc.fresh, false)
	inc.uses = append(inc.uses, nil)
	inc.targets = append(inc.targets, nil)
	inc.activeStamp = append(inc.activeStamp, 0)
	inc.slotDemand = append(inc.slotDemand, 0)
	inc.slotDirty = append(inc.slotDirty, 0)
	if inc.kind != KindHopBounded {
		inc.pt = append(inc.pt, nil)
	}
	return s
}

// Kind returns the cache's structure kind.
func (inc *Incremental) Kind() TreeKind { return inc.kind }

// MaxHops returns the KindHopBounded table depth.
func (inc *Incremental) MaxHops() int { return inc.maxHops }

// NumSlots returns the number of distinct sources.
func (inc *Incremental) NumSlots() int { return len(inc.sources) }

// Slot returns the slot index of a source vertex.
func (inc *Incremental) Slot(source int) (int, bool) {
	s, ok := inc.slot[source]
	return s, ok
}

// Source returns the source vertex of a slot.
func (inc *Incremental) Source(slot int) int { return inc.sources[slot] }

// Tree returns the cached tree of a slot (KindAdditive and
// KindBottleneck). It is valid only if the slot was active in the
// latest Refresh (a stale tree of an inactive slot reflects older
// weights).
func (inc *Incremental) Tree(slot int) *Tree { return inc.trees[slot] }

// Table returns the cached hop table of a slot (KindHopBounded), under
// the same validity rule as Tree.
func (inc *Incremental) Table(slot int) *HopTable { return inc.tables[slot] }

// SetTargets declares that only paths (and distances) to the given
// target vertices will ever be read from the slot's tree, which lets
// the cache record just the edges on those tree paths instead of the
// whole tree — often a dramatically smaller set, hence a dramatically
// lower dirty rate. Soundness is the single-target-path argument
// applied per target: under the monotone-weights contract, a clean path
// stays canonical-optimal, so every declared target's (distance, path)
// stays bit-identical to recomputation even when undeclared parts of
// the tree would have changed. Reading an undeclared target from a
// reused tree is a contract violation (the answer may be stale).
//
// The restriction applies to the tree kinds, whose per-vertex distances
// (additive sums; leximax keys for bottleneck — see Scratch.Bottleneck
// for why leximax rather than a scalar secondary) are monotone
// non-decreasing under weight increases — the property the per-target
// argument needs. A KindHopBounded cache ignores it and keeps
// whole-table recording (its BestLen-style consumers read every hop
// layer, whose witness walks blanket the table). Call before the first
// Refresh — or at any point at which the slot is dirty — with the
// universe of targets the slot will serve (supersets are sound, merely
// coarser); nil restores whole-structure recording. The solvers pass
// each source's request targets, which only shrink over a run.
func (inc *Incremental) SetTargets(slot int, targets []int) {
	if inc.kind == KindHopBounded {
		return
	}
	if targets == nil {
		inc.targets[slot] = nil
		return
	}
	ts := make([]int32, len(targets))
	for i, t := range targets {
		ts[i] = int32(t)
	}
	inc.targets[slot] = ts
}

// Invalidate marks dirty every cached structure — and every cached
// single-target path — that uses one of the given edges. Callers must
// report every edge whose weight may have changed.
func (inc *Incremental) Invalidate(edges []int) {
	for s := range inc.fresh {
		if !inc.fresh[s] {
			continue
		}
		u := inc.uses[s]
		for _, e := range edges {
			if u[e>>6]&(1<<(uint(e)&63)) != 0 {
				inc.fresh[s] = false
				break
			}
		}
	}
	for s := range inc.pt {
		for i := range inc.pt[s] {
			en := &inc.pt[s][i]
			if !en.fresh {
				continue
			}
			for _, e := range edges {
				if en.uses[e>>6]&(1<<(uint(e)&63)) != 0 {
					en.fresh = false
					break
				}
			}
		}
	}
	if inc.lmOK && inc.lm != nil && !inc.lmCheckAll {
		// Record the changed edges for the lazy landmark-bound check.
		if len(inc.lmPending)+len(edges) > inc.g.NumEdges() {
			inc.lmCheckAll = true
			inc.lmPending = inc.lmPending[:0]
		} else {
			for _, e := range edges {
				inc.lmPending = append(inc.lmPending, int32(e))
			}
		}
	}
}

// InvalidateAll marks every cached structure (and single-target path)
// dirty — the full-recompute fallback, and the reset to use after any
// change that violates the monotone-weights contract (e.g. swapping in
// an unrelated weight function).
func (inc *Incremental) InvalidateAll() {
	for s := range inc.fresh {
		inc.fresh[s] = false
	}
	for s := range inc.pt {
		for i := range inc.pt[s] {
			inc.pt[s][i].fresh = false
		}
	}
	if inc.lmOK && inc.lm != nil {
		inc.lmCheckAll = true
		inc.lmPending = inc.lmPending[:0]
	}
}

// Refresh brings the structures of the active slots up to date under
// the given weights, recomputing only dirty ones (distributed over up
// to workers goroutines, each with a pooled scratch), and returns how
// many were recomputed. Duplicate active slots are tolerated — they are
// deduplicated here, because handing the same slot to two workers would
// race on its structure.
func (inc *Incremental) Refresh(active []int, weight WeightFunc, workers int) int {
	inc.refreshes++
	inc.activeGen++
	if inc.activeGen == 0 { // uint32 wraparound: invalidate stale stamps
		for i := range inc.activeStamp {
			inc.activeStamp[i] = 0
		}
		inc.activeGen = 1
	}
	var work []int
	distinct := 0
	for _, s := range active {
		if inc.activeStamp[s] == inc.activeGen {
			continue
		}
		inc.activeStamp[s] = inc.activeGen
		distinct++
		inc.slotDemand[s]++
		if !inc.fresh[s] {
			inc.slotDirty[s]++
			work = append(work, s)
		}
	}
	inc.recomputed += int64(len(work))
	inc.reused += int64(distinct - len(work))
	if len(work) == 0 {
		return 0
	}
	if workers > len(work) {
		workers = len(work)
	}
	if workers <= 1 {
		sc := inc.pool.Get(inc.g.NumVertices())
		for _, s := range work {
			inc.recompute(sc, s, weight)
		}
		inc.pool.Put(sc)
		return len(work)
	}
	var wg sync.WaitGroup
	queue := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := inc.pool.Get(inc.g.NumVertices())
			for s := range queue {
				inc.recompute(sc, s, weight)
			}
			inc.pool.Put(sc)
		}()
	}
	for _, s := range work {
		queue <- s
	}
	close(queue)
	wg.Wait()
	return len(work)
}

// recompute rebuilds slot s's structure with the search of the cache's
// kind and re-records its used edges.
func (inc *Incremental) recompute(sc *Scratch, s int, weight WeightFunc) {
	switch inc.kind {
	case KindAdditive:
		inc.trees[s] = sc.Dijkstra(inc.g, inc.sources[s], weight, inc.trees[s])
	case KindBottleneck:
		inc.trees[s] = sc.Bottleneck(inc.g, inc.sources[s], weight, inc.trees[s])
	case KindHopBounded:
		inc.tables[s] = BellmanFordHopsInto(inc.g, inc.sources[s], weight, inc.maxHops, inc.tables[s])
	}
	inc.rebuildUses(s)
	inc.fresh[s] = true
}

// rebuildUses records the edge set of slot s's structure: a tree's
// predecessor edges (restricted to the declared targets' paths when
// SetTargets applies), or every predecessor edge of every layer of a
// hop table (the rewind of any table entry's witness walk only reads
// recorded predecessors, so this set supports the reuse argument).
func (inc *Incremental) rebuildUses(s int) {
	u := inc.uses[s]
	if u == nil {
		u = make([]uint64, inc.words)
		inc.uses[s] = u
	} else {
		for i := range u {
			u[i] = 0
		}
	}
	if inc.kind == KindHopBounded {
		for _, row := range inc.tables[s].prevEdge {
			for _, e := range row {
				if e >= 0 {
					u[e>>6] |= 1 << (uint(e) & 63)
				}
			}
		}
		return
	}
	t := inc.trees[s]
	if ts := inc.targets[s]; ts != nil {
		for _, target := range ts {
			// Walk the tree path toward the source, stopping at the first
			// already-recorded edge: the rest of the chain is shared with a
			// previously walked path (tree paths to the source are unique).
			for v := int(target); ; v = t.PrevVert[v] {
				e := t.PrevEdge[v]
				if e < 0 || u[e>>6]&(1<<(uint(e)&63)) != 0 {
					break
				}
				u[e>>6] |= 1 << (uint(e) & 63)
			}
		}
		return
	}
	for _, e := range t.PrevEdge {
		if e >= 0 {
			u[e>>6] |= 1 << (uint(e) & 63)
		}
	}
}

// PathTo answers a single-target query on a tree-kind cache: the
// canonical optimal path from slot's source to target under weight, its
// length (additive distance or bottleneck value, per the kind), and
// whether target is reachable — bit-identical to refreshing the slot's
// tree and reading Tree.PathTo/Tree.Dist, but without materializing a
// tree when the slot is dirty. A fresh tree answers directly; otherwise
// a cached (target, path) entry still clean under the invalidation
// bitsets answers (up to ptCapacity targets are cached per slot, LRU);
// otherwise a single-target search runs — the plain early-exit search,
// or its ALT-pruned / bidirectional form when SetOracle configured one
// — and its result is cached with the path's own edge set. Unreachable
// results are cached with an empty edge set: under monotone weights an
// unreachable target can never become reachable, so the entry stays
// valid until InvalidateAll. Like Refresh, PathTo must be driven from
// one goroutine.
func (inc *Incremental) PathTo(slot, target int, weight WeightFunc) ([]int, float64, bool) {
	if inc.kind == KindHopBounded {
		panic(fmt.Sprintf("pathfind: Incremental.PathTo on a %s cache (tree kinds only)", inc.kind))
	}
	inc.slotDemand[slot]++
	if inc.fresh[slot] {
		t := inc.trees[slot]
		inc.reused++
		inc.ptHits++
		if math.IsInf(t.Dist[target], 1) {
			return nil, math.Inf(1), false
		}
		p, _ := t.PathTo(target)
		return p, t.Dist[target], true
	}
	list := inc.pt[slot]
	for i := range list {
		if list[i].fresh && int(list[i].target) == target {
			en := list[i]
			copy(list[1:i+1], list[:i]) // promote to most-recent
			list[0] = en
			inc.reused++
			inc.ptHits++
			return en.path, en.dist, en.ok
		}
	}
	inc.slotDirty[slot]++
	n := inc.g.NumVertices()
	sc := inc.pool.Get(n)
	var lm *Landmarks // nil: the search runs unpruned
	if inc.lmUsable(weight) {
		lm = inc.lm
	}
	var path []int
	var dist float64
	var ok bool
	touched := 0
	switch {
	case inc.bidi:
		sc2 := inc.pool.Get(n)
		var bst bidiStats
		path, dist, ok, bst = bidiPathTo(inc.g, inc.sources[slot], target, weight, lm, sc, sc2)
		inc.pool.Put(sc2)
		inc.bidiProbes++
		if bst.met {
			inc.bidiMeets++
		}
		touched = bst.touched
	case inc.kind == KindBottleneck:
		path, dist, ok = sc.BottleneckPathToALT(inc.g, inc.sources[slot], target, weight, lm)
		touched = sc.Touched()
	default:
		path, dist, ok = sc.ShortestPathToALT(inc.g, inc.sources[slot], target, weight, lm)
		touched = sc.Touched()
	}
	if inc.bidi || lm != nil {
		inc.altSearches++
		inc.altTouched += int64(touched)
		inc.altBudget += int64(n)
	}
	inc.pool.Put(sc)
	inc.recomputed++
	inc.ptMisses++
	inc.storePath(slot, target, path, dist, ok)
	return path, dist, ok
}

// lmUsable reports whether the landmark tables may prune this query,
// first draining the pending bound checks: every edge invalidated
// since the last drain (the only edges whose weights may have changed,
// per the cache contract) is compared against the build-time lower
// bound, and any violation is handed to lmViolated — which either
// rebuilds the tables in place (keeping the oracle usable) or disables
// them.
func (inc *Incremental) lmUsable(weight WeightFunc) bool {
	if !inc.lmOK || inc.lm == nil {
		return false
	}
	if inc.lmCheckAll {
		inc.lmCheckAll = false
		inc.lmPending = inc.lmPending[:0]
		for e, m := 0, inc.g.NumEdges(); e < m; e++ {
			if weight(e) < inc.lm.lb[e] {
				return inc.lmViolated(weight)
			}
		}
		return true
	}
	if len(inc.lmPending) > 0 {
		for _, e := range inc.lmPending {
			if weight(int(e)) < inc.lm.lb[e] {
				inc.lmPending = inc.lmPending[:0]
				return inc.lmViolated(weight)
			}
		}
		inc.lmPending = inc.lmPending[:0]
	}
	return true
}

// lmViolated reacts to a lower-bound violation. Within the
// DefaultStaleViolations budget the tables are rebuilt against the
// current weights — trivially a valid lower bound of themselves, so the
// oracle stays usable and the violation costs one table build; past the
// budget the tables are permanently disabled. Either way the violation
// is counted.
func (inc *Incremental) lmViolated(weight WeightFunc) bool {
	inc.lmViolations++
	if inc.lmViolRebuilds < DefaultStaleViolations {
		inc.lmViolRebuilds++
		inc.rebuildLandmarks(weight)
		return true
	}
	inc.lmOK = false
	return false
}

// rebuildLandmarks re-selects and rebuilds the landmark tables against
// the current weight snapshot (Landmarks.Rebuild — minimax tables
// included iff the old set had them), clears the pending bound checks
// (the new lower bound is the current weights), and reports the
// rebuild to the OnRebuild hook.
func (inc *Incremental) rebuildLandmarks(weight WeightFunc) {
	start := time.Now()
	inc.lm = inc.lm.Rebuild(inc.g, weight)
	inc.lmOK = true
	inc.lmCheckAll = false
	inc.lmPending = inc.lmPending[:0]
	inc.lmRebuilds++
	if inc.onRebuild != nil {
		inc.onRebuild(time.Since(start).Seconds())
	}
}

// storePath caches a single-target answer in the slot's entry list:
// most-recent first, stale entries reclaimed first, then the
// least-recently-used entry evicted once the list is at capacity.
func (inc *Incremental) storePath(slot, target int, path []int, dist float64, ok bool) {
	list := inc.pt[slot]
	victim := -1
	for i := range list {
		if !list[i].fresh {
			victim = i
			break
		}
	}
	if victim < 0 {
		if len(list) < ptCapacity {
			list = append(list, ptEntry{})
			inc.pt[slot] = list
		}
		victim = len(list) - 1
	}
	u := list[victim].uses
	if u == nil {
		u = make([]uint64, inc.words)
	} else {
		for i := range u {
			u[i] = 0
		}
	}
	for _, e := range path {
		u[e>>6] |= 1 << (uint(e) & 63)
	}
	copy(list[1:victim+1], list[:victim])
	list[0] = ptEntry{target: int32(target), fresh: true, ok: ok, dist: dist, path: path, uses: u}
}

// Stats reports how many structures Refresh (and PathTo) rebuilt versus
// served from cache over the cache's lifetime — the observable form of
// the dirty-source speedup.
func (inc *Incremental) Stats() (recomputed, reused int64) {
	return inc.recomputed, inc.reused
}

// Adaptive-policy constants. A slot's first warmupDemands demands
// carry no signal, so they refresh the tree; after that the slot routes
// to single-target search when its observed dirty rate exceeds
// singleCostRatio per queried target — the point at which rebuilding a
// whole tree at the observed rate costs more than answering each target
// with a pruned early-exit search (an oracle search touches roughly a
// quarter of the graph or less, hence the ratio).
const (
	warmupDemands   = 4
	singleCostRatio = 0.25
)

// DefaultStaleViolations is the landmark violation-rebuild budget: how
// many lower-bound violations may rebuild the tables (safe — the
// violating weights become the new lower bound) before the oracle
// permanently self-disables instead. Monotone prices never violate the
// bound, so the budget is the recovery path for a broken contract, not
// a tuning knob.
const DefaultStaleViolations = 4

// PreferSingle is the adaptive refresh policy: it reports whether a
// slot currently fanning out to fanout distinct targets should be
// answered through PathTo single-target searches (true) instead of
// being included in tree Refreshes (false), based on the slot's
// observed dirty rate. Because PathTo is bit-identical to refreshing
// the tree and reading it, either decision returns the same answers —
// the policy only moves work. A fanout of one always routes to
// single-target search (an early-exit search never costs more than the
// full tree build it replaces, and the path cache absorbs clean
// repeats); fan-outs beyond the path-cache capacity always refresh the
// tree. Decisions are counted in CacheStats.
func (inc *Incremental) PreferSingle(slot, fanout int) bool {
	single := inc.preferSingle(slot, fanout)
	if single {
		inc.policySingle++
	} else {
		inc.policyTree++
	}
	return single
}

func (inc *Incremental) preferSingle(slot, fanout int) bool {
	if inc.kind == KindHopBounded || fanout <= 0 || fanout > ptCapacity {
		return false
	}
	if fanout == 1 {
		return true
	}
	demand := inc.slotDemand[slot]
	if demand < inc.policyWarmup {
		return false
	}
	var rate float64
	if demand > 0 { // a no-warm-up cache may be asked before any demand
		rate = float64(inc.slotDirty[slot]) / float64(demand)
	}
	return rate >= inc.policyCostRatio*float64(fanout)
}

// CacheStats is the cache's full observer view: lifetime counters cheap
// enough to read on every scrape. The fields only ever increase; an
// aggregation over several caches (the session manager sums its live
// sessions') may still shrink as caches are dropped, which is why the
// serving stack surfaces them as gauges.
type CacheStats struct {
	// Refreshes counts Refresh calls (solver iterations driving the
	// cache).
	Refreshes int64
	// Recomputed / Reused split the structures (and single-target
	// searches) the cache was asked for into rebuilt-from-scratch versus
	// served-clean — Stats() in struct form.
	Recomputed int64
	Reused     int64
	// PathToHits / PathToMisses split PathTo answers into served from a
	// fresh tree or clean cached path versus answered by an early-exit
	// search.
	PathToHits   int64
	PathToMisses int64
	// AltSearches counts the PathTo misses answered by the configured
	// oracle (ALT-pruned or bidirectional search); AltTouched is how
	// many vertices those searches touched, against AltBudget — the
	// vertices full tree builds would have touched — so
	// 1 - AltTouched/AltBudget is the oracle's observed prune rate.
	AltSearches int64
	AltTouched  int64
	AltBudget   int64
	// BidiProbes / BidiMeets count bidirectional probes and how many of
	// them bridged their forward and backward frontiers (an unbridged
	// probe certifies unreachability).
	BidiProbes int64
	BidiMeets  int64
	// PolicyTree / PolicySingle count PreferSingle's adaptive refresh
	// decisions.
	PolicyTree   int64
	PolicySingle int64
	// LandmarkViolations counts lower-bound violations (zero under the
	// solvers' monotone-price contract); each one either triggered a
	// rebuild or, past the DefaultStaleViolations budget, disabled the
	// tables.
	LandmarkViolations int64
	// LandmarkRebuilds counts landmark table rebuilds, all of them
	// violation-triggered (so also zero under monotone prices).
	LandmarkRebuilds int64
}

// Add accumulates o's counters into s — the fleet-aggregation helper
// used by the session manager (summing over live sessions) and the
// shard router (summing over backends).
func (s *CacheStats) Add(o CacheStats) {
	s.Refreshes += o.Refreshes
	s.Recomputed += o.Recomputed
	s.Reused += o.Reused
	s.PathToHits += o.PathToHits
	s.PathToMisses += o.PathToMisses
	s.AltSearches += o.AltSearches
	s.AltTouched += o.AltTouched
	s.AltBudget += o.AltBudget
	s.BidiProbes += o.BidiProbes
	s.BidiMeets += o.BidiMeets
	s.PolicyTree += o.PolicyTree
	s.PolicySingle += o.PolicySingle
	s.LandmarkViolations += o.LandmarkViolations
	s.LandmarkRebuilds += o.LandmarkRebuilds
}

// DirtyRatio is the fraction of demanded structures that had to be
// recomputed (0 with no demand): the dirty-source rate the incremental
// design exists to keep small.
func (s CacheStats) DirtyRatio() float64 {
	total := s.Recomputed + s.Reused
	if total == 0 {
		return 0
	}
	return float64(s.Recomputed) / float64(total)
}

// PruneRatio is the fraction of full-tree search work the oracle's
// pruned searches avoided: 1 - AltTouched/AltBudget. It is 0 when no
// oracle search has run and can dip negative if bidirectional probes
// touch more vertices than the tree builds they replace.
func (s CacheStats) PruneRatio() float64 {
	if s.AltBudget == 0 {
		return 0
	}
	return 1 - float64(s.AltTouched)/float64(s.AltBudget)
}

// CacheStats returns the cache's observer counters. Like every other
// read, it must be driven from the cache's single driving goroutine (or
// under the caller's lock serializing against it).
func (inc *Incremental) CacheStats() CacheStats {
	return CacheStats{
		Refreshes:          inc.refreshes,
		Recomputed:         inc.recomputed,
		Reused:             inc.reused,
		PathToHits:         inc.ptHits,
		PathToMisses:       inc.ptMisses,
		AltSearches:        inc.altSearches,
		AltTouched:         inc.altTouched,
		AltBudget:          inc.altBudget,
		BidiProbes:         inc.bidiProbes,
		BidiMeets:          inc.bidiMeets,
		PolicyTree:         inc.policyTree,
		PolicySingle:       inc.policySingle,
		LandmarkViolations: inc.lmViolations,
		LandmarkRebuilds:   inc.lmRebuilds,
	}
}
