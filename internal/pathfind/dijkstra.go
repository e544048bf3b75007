// Package pathfind implements the shortest-path oracles used by the
// primal-dual algorithms: Dijkstra over positive edge prices (the paper's
// line 7 "shortest path with respect to the weights y_e"), hop-bounded
// Bellman-Ford (for priority rules that depend on the hop count, such as
// the paper's h1), bottleneck paths, BFS, and exhaustive simple-path
// enumeration for exact optima on small instances.
//
// Single-target queries additionally run on a goal-directed oracle that
// layers three accelerations over the early-exit search, each preserving
// the canonical largest-edge-ID tie-break bit for bit:
//
//   - ALT landmarks (Landmarks, BuildLandmarks, Scratch.
//     ShortestPathToALT): k farthest-point landmarks with precomputed
//     distance tables give an admissible, consistent A* heuristic via
//     the triangle inequality. Because the exponential prices
//     y_e = (1/c_e)·e^(εB·f_e/c_e) only ever rise, tables built from
//     the initial weights 1/c_e stay valid lower bounds for the whole
//     run; Incremental re-checks only the edges a price update passed
//     to Invalidate and disables the tables outright if a weight ever
//     falls below its recorded bound (degrading to the plain search,
//     never to a wrong answer).
//
//   - Bidirectional probes (ShortestPathToBidi, OracleConfig.
//     Bidirectional): a forward/backward Dijkstra meet over the frozen
//     reverse CSR establishes the exact distance, then a bounded
//     forward A* replays the canonical tie-break so the returned path
//     is the one the plain search would pick.
//
//   - An adaptive refresh policy (Incremental.PreferSingle): per-slot
//     observed dirty rates and target fan-out decide between rebuilding
//     the slot's full tree and answering through the single-target
//     oracle; either route yields identical paths, so the policy only
//     moves work.
//
// Incremental.SetOracle installs the landmark tables and the
// bidirectional mode on a cache's PathTo fast path; CacheStats reports
// the oracle's work (searches, vertices touched vs the exhaustive
// budget, bidirectional meets, policy decisions, landmark violations).
package pathfind

import (
	"math"

	"truthfulufp/internal/graph"
)

// WeightFunc returns the cost of crossing an edge. Returning +Inf forbids
// the edge, which is how residual-capacity filtering is expressed.
type WeightFunc func(edge int) float64

// Uniform returns a WeightFunc assigning every edge weight w.
func Uniform(w float64) WeightFunc {
	return func(int) float64 { return w }
}

// FromSlice returns a WeightFunc reading weights from a slice indexed by
// edge ID.
func FromSlice(w []float64) WeightFunc {
	return func(e int) float64 { return w[e] }
}

// Tree is a single-source shortest-path tree. Dist[v] is +Inf for
// unreachable vertices. PrevEdge[v] and PrevVert[v] give the edge and
// predecessor vertex on a shortest path from the source (-1 at the source
// and at unreachable vertices).
type Tree struct {
	Source   int
	Dist     []float64
	PrevEdge []int
	PrevVert []int
}

// PathTo returns the edge IDs of a shortest path from the tree's source
// to dst, in order, and whether dst is reachable. The path for dst ==
// Source is the empty path.
func (t *Tree) PathTo(dst int) ([]int, bool) {
	if math.IsInf(t.Dist[dst], 1) {
		return nil, false
	}
	var rev []int
	for v := dst; v != t.Source; v = t.PrevVert[v] {
		rev = append(rev, t.PrevEdge[v])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// Dijkstra computes shortest paths from src under the given nonnegative
// weights. Edges with +Inf weight are skipped. It is the oracle behind
// Bounded-UFP's path selection; weights are the dual prices y_e, which
// are always strictly positive, so the nonnegativity precondition holds.
//
// The returned tree is canonical: when several predecessor arcs achieve
// a vertex's shortest distance, the one with the largest edge ID wins.
// Canonicality makes the tree a pure function of the weights — not of
// relaxation order — which is what lets the Incremental cache reuse a
// clean tree in place of a recomputation (see Incremental). Largest
// (rather than smallest) ID is the choice under which the lower-bound
// constructions' adversarial tie-breaks (internal/lowerbound) coincide
// with the oracle's, matching the paper's Theorem 3.11/3.12 runs.
//
// Dijkstra runs on the graph's CSR adjacency, freezing the graph first
// if needed (see graph.Graph.Freeze). Performance-sensitive callers
// should reuse a Scratch (or a Pool) instead of this convenience entry
// point.
func Dijkstra(g *graph.Graph, src int, weight WeightFunc) *Tree {
	s := defaultPool.Get(g.NumVertices())
	t := s.Dijkstra(g, src, weight, nil)
	defaultPool.Put(s)
	return t
}

// The minimax (bottleneck) search shares the indexed 4-ary heap embedded
// in Scratch with the additive Dijkstra; see Scratch.Bottleneck.
