package pathfind

import (
	"math"

	"truthfulufp/internal/graph"
)

// Landmarks is a read-only set of ALT (A*, Landmarks, Triangle
// inequality) distance tables: for each of k landmark vertices L, the
// shortest-path distance from L to every vertex and from every vertex
// to L under a fixed lower-bound weight function. By the triangle
// inequality, for any vertices u, t:
//
//	d(u,t) >= d_lb(u,t) >= max_L max( d_lb(L,t) - d_lb(L,u),
//	                                  d_lb(u,L) - d_lb(t,L), 0 )
//
// for every weight function w >= lb, because raising weights can only
// raise distances. The max over landmarks is a consistent potential
// (pot(u) <= w(u->v) + pot(v) on every arc), which is exactly what the
// A* single-target search needs to prune while staying bit-identical
// to plain Dijkstra (see Scratch.ShortestPathToALT).
//
// The exponential-price solvers qualify structurally: prices start at
// 1/capacity and only ever rise, so tables built on the initial prices
// stay valid lower bounds for the whole run — no rebuild is ever needed
// unless weights are swapped wholesale (which Incremental detects, see
// OracleConfig).
//
// The same tables extend to the bottleneck (minimax) kind: the minimax
// "triangle inequality" d_b(L,t) <= max(d_b(L,u), d_b(u,t)) yields, for
// each landmark, a lower bound on the remaining bottleneck value —
// d_b(u,t) >= d_b(L,t) whenever d_b(L,u) < d_b(L,t), and symmetrically
// backwards — whose max over landmarks is a consistent minimax
// potential (pot(u) <= max(w(u->v), pot(v))). WithBottleneck builds the
// minimax tables on demand; they are optional because only
// KindBottleneck consumers pay for them.
//
// A Landmarks is immutable after construction (WithBottleneck included,
// which must run before the tables are shared) and safe to share across
// goroutines, pools, and cloned instances whose graphs share the same
// frozen CSR. LandmarkRegistry is the process-wide sharing layer.
type Landmarks struct {
	csr *graph.CSR // the frozen topology the tables were built on
	ids []int32    // landmark vertex IDs, in selection order
	lb  []float64  // per-edge lower-bound weight snapshot
	fwd [][]float64
	bwd [][]float64
	// bfwd/bbwd are the optional minimax (bottleneck) distance tables
	// over the same landmarks and lower bound (see WithBottleneck).
	bfwd [][]float64
	bbwd [][]float64
}

// DefaultLandmarkCount is the landmark count consumers use when asked
// for an automatic build: enough for strong bounds on sparse
// network-like graphs without a noticeable table-build or per-touch
// cost.
const DefaultLandmarkCount = 8

// BuildLandmarks selects up to k landmarks on g by farthest-point
// seeding and precomputes their forward and backward distance tables
// under weight, snapshotting weight as the tables' lower bound. The
// first landmark is the highest-out-degree vertex (a well-connected
// hub); each subsequent one is the vertex farthest (under the current
// tables, unreachable counting as farthest so every component gets
// covered) from all landmarks chosen so far. Vertices with no outgoing
// arcs are never selected. The graph is frozen — forward and reverse —
// as a side effect. Cost: one or two Dijkstras per landmark.
//
// weight must be a lower bound on every weight function later queried
// against the tables; the solvers pass the initial prices 1/capacity.
func BuildLandmarks(g *graph.Graph, k int, weight WeightFunc) *Landmarks {
	n := g.NumVertices()
	csr := g.Freeze()
	rcsr := g.FreezeReverse()
	m := g.NumEdges()
	lm := &Landmarks{csr: csr, lb: make([]float64, m)}
	for e := 0; e < m; e++ {
		lm.lb[e] = weight(e)
	}
	if k <= 0 || n == 0 {
		return lm
	}
	if k > n {
		k = n
	}
	lbw := FromSlice(lm.lb)
	s := NewScratch(n)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	isLandmark := make([]bool, n)
	best, bestDeg := -1, int32(0)
	for v := 0; v < n; v++ {
		if deg := csr.Start[v+1] - csr.Start[v]; best < 0 || deg > bestDeg {
			best, bestDeg = v, deg
		}
	}
	for len(lm.ids) < k && best >= 0 {
		lm.ids = append(lm.ids, int32(best))
		isLandmark[best] = true
		s.search(csr, KindAdditive, int32(best), -1, lbw, nil)
		f := snapshotDist(s, n)
		lm.fwd = append(lm.fwd, f)
		if g.Directed() {
			s.search(rcsr, KindAdditive, int32(best), -1, lbw, nil)
			lm.bwd = append(lm.bwd, snapshotDist(s, n))
		} else {
			lm.bwd = append(lm.bwd, f) // symmetric distances
		}
		for v := 0; v < n; v++ {
			if f[v] < minDist[v] {
				minDist[v] = f[v]
			}
		}
		best = -1
		bestD := math.Inf(-1)
		for v := 0; v < n; v++ {
			if isLandmark[v] || csr.Start[v+1] == csr.Start[v] {
				continue
			}
			if minDist[v] > bestD {
				best, bestD = v, minDist[v]
			}
		}
	}
	return lm
}

// WithBottleneck extends the landmark set with minimax (bottleneck)
// distance tables over the same landmarks and the same lower-bound
// weight snapshot, and returns lm for chaining. The tables feed
// Scratch.BottleneckPathToALT: for any weight function w >= lb,
// raising weights can only raise minimax distances, so the bounds stay
// admissible for the whole run exactly like the additive ones. Must be
// called before lm is shared across goroutines (it mutates lm). Cost:
// one or two full leximax runs per landmark, whose dist is exactly the
// minimax value. No-op when called twice or when no landmarks were
// selected.
func (lm *Landmarks) WithBottleneck(g *graph.Graph) *Landmarks {
	if lm.bfwd != nil || len(lm.ids) == 0 {
		return lm
	}
	n := g.NumVertices()
	csr := g.Freeze()
	rcsr := g.FreezeReverse()
	if csr != lm.csr {
		panic("pathfind: WithBottleneck graph does not match the landmarks' frozen CSR")
	}
	lbw := FromSlice(lm.lb)
	s := NewScratch(n)
	for _, id := range lm.ids {
		s.search(csr, KindBottleneck, id, -1, lbw, nil)
		f := snapshotDist(s, n)
		lm.bfwd = append(lm.bfwd, f)
		if g.Directed() {
			s.search(rcsr, KindBottleneck, id, -1, lbw, nil)
			lm.bbwd = append(lm.bbwd, snapshotDist(s, n))
		} else {
			lm.bbwd = append(lm.bbwd, f) // symmetric minimax distances
		}
	}
	return lm
}

// HasBottleneck reports whether the minimax tables were built, i.e.
// whether this set can goal-direct KindBottleneck searches.
func (lm *Landmarks) HasBottleneck() bool { return lm.bfwd != nil }

// Rebuild re-selects landmarks and rebuilds every table against the
// current weight snapshot, returning a fresh set (lm is untouched —
// concurrent readers of the old tables stay valid). Under the monotone
// repricing contract the current prices are a lower bound on all future
// prices, so a rebuild is safe at any point in a run and restores the
// pruning power the original 1/capacity snapshot has lost. The new set
// keeps the old one's landmark count and carries minimax tables iff
// the old set had them.
func (lm *Landmarks) Rebuild(g *graph.Graph, weight WeightFunc) *Landmarks {
	k := len(lm.ids)
	if k == 0 {
		k = DefaultLandmarkCount
	}
	nl := BuildLandmarks(g, k, weight)
	if lm.HasBottleneck() {
		nl.WithBottleneck(g)
	}
	return nl
}

// rebind returns a shallow copy of lm whose tables are shared but whose
// CSR pointer is csr — used by LandmarkRegistry to hand one table set
// to a structurally identical graph that was frozen separately. The
// caller must have verified structural identity (same vertex count,
// arcs, edge IDs, and lower-bound weights).
func (lm *Landmarks) rebind(csr *graph.CSR) *Landmarks {
	cp := *lm
	cp.csr = csr
	return &cp
}

// snapshotDist copies the scratch's reached distances into a dense
// slice, unreached vertices mapping to +Inf.
func snapshotDist(s *Scratch, n int) []float64 {
	d := make([]float64, n)
	inf := math.Inf(1)
	for i := range d {
		d[i] = inf
	}
	for _, v := range s.order {
		d[v] = s.dist[v]
	}
	return d
}

// K returns the number of landmarks actually selected (0 for a nil set).
func (lm *Landmarks) K() int {
	if lm == nil {
		return 0
	}
	return len(lm.ids)
}

// IDs returns the landmark vertex IDs. Callers must not modify the
// returned slice.
func (lm *Landmarks) IDs() []int32 { return lm.ids }

// LowerBoundWeight returns the snapshotted lower-bound weight of edge
// e — what a consumer compares a changed weight against to detect a
// bound violation.
func (lm *Landmarks) LowerBoundWeight(e int) float64 { return lm.lb[e] }

// Bound returns the landmark lower bound on the distance from u to t
// under any weight function >= the build-time lower bound: the ALT
// potential toward t that the search runs, evaluated at u. +Inf means
// provably unreachable (the bound certifies there is no u->t path at
// all — reachability is topological, since the build weights are
// finite on every edge). An empty set bounds nothing and returns 0.
func (lm *Landmarks) Bound(u, t int) float64 {
	if lm.K() == 0 {
		return 0
	}
	return lm.potential(int32(t))(int32(u))
}

// potential returns the ALT potential toward target t: a consistent
// lower bound on each vertex's remaining distance to t, with
// potential(t) == 0. The per-landmark t-columns are gathered once so
// the per-vertex evaluation inside the search is k subtractions over
// dense rows. A nil or empty set has no potential (nil), which the
// search runs as the plain early-exit search.
func (lm *Landmarks) potential(t int32) func(int32) float64 {
	if lm.K() == 0 {
		return nil
	}
	k := len(lm.ids)
	inf := math.Inf(1)
	ft := make([]float64, k)
	bt := make([]float64, k)
	for i := 0; i < k; i++ {
		ft[i] = lm.fwd[i][t]
		bt[i] = lm.bwd[i][t]
	}
	return func(u int32) float64 {
		if u == t {
			return 0
		}
		best := 0.0
		for i := 0; i < k; i++ {
			if fu := lm.fwd[i][u]; fu < inf && ft[i] > fu {
				if d := ft[i] - fu; d > best {
					best = d
				}
			}
			if bu := lm.bwd[i][u]; bt[i] < inf && bu > bt[i] {
				if d := bu - bt[i]; d > best {
					best = d
				}
			}
		}
		return best
	}
}

// bottleneckPotential returns the minimax potential toward target t: a
// consistent lower bound on each vertex's remaining bottleneck value to
// t. Per landmark L, the minimax triangle inequality
// d_b(L,t) <= max(d_b(L,u), d_b(u,t)) gives d_b(u,t) >= d_b(L,t) when
// d_b(L,u) < d_b(L,t) (forward term) and d_b(u,t) >= d_b(u,L) when
// d_b(t,L) < d_b(u,L) (backward term); the conditions also cover the
// +Inf cases (if u could reach t the composite path would contradict
// the unreachability the table records). The max over terms is
// consistent: pot(u) <= max(w(u->v), pot(v)) on every arc, which is
// what BottleneckPathToALT needs for exact early termination. Unlike
// the additive potential no float slack is involved — max() never
// creates new values, so the comparison against the true distance is
// exact. A set without minimax tables has no potential (nil).
func (lm *Landmarks) bottleneckPotential(t int32) func(int32) float64 {
	if lm.K() == 0 || !lm.HasBottleneck() {
		return nil
	}
	k := len(lm.ids)
	ft := make([]float64, k)
	bt := make([]float64, k)
	for i := 0; i < k; i++ {
		ft[i] = lm.bfwd[i][t]
		bt[i] = lm.bbwd[i][t]
	}
	ninf := math.Inf(-1)
	return func(u int32) float64 {
		if u == t {
			// The empty path: matches the -Inf self-distance the
			// leximax search uses for dist[src].
			return ninf
		}
		best := 0.0
		for i := 0; i < k; i++ {
			if fu := lm.bfwd[i][u]; fu < ft[i] {
				if ft[i] > best {
					best = ft[i]
				}
			}
			if bu := lm.bbwd[i][u]; bt[i] < bu {
				if bu > best {
					best = bu
				}
			}
		}
		return best
	}
}
