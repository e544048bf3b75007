package pathfind

import (
	"math"

	"truthfulufp/internal/graph"
)

// bidiStats is the work profile of one bidirectional probe.
type bidiStats struct {
	touched int  // vertices touched across both phases
	met     bool // the two frontiers bridged (dst reachable from src)
}

// bidiPathTo answers a single-target query with a bidirectional probe,
// bit-identical to Scratch.ShortestPathTo. It runs in two phases:
//
//  1. Alternating forward (from src, on the CSR) and backward (from
//     dst, on the reverse CSR) Dijkstra, always settling the side with
//     the smaller frontier key, until top_f + top_b >= mu, where mu is
//     the best bridged path length seen (updated whenever a settle
//     scans an arc whose far end is settled by the other side, and
//     whenever a vertex settled by both sides pops). At that point mu
//     is the exact s-t distance — or +Inf, certifying unreachability.
//  2. A fresh forward A* (the search kernel) whose potential is the
//     backward search's exact distance for backward-settled vertices
//     and the last backward pop key — a floor on every unsettled
//     vertex's true remaining distance — otherwise, optionally
//     tightened with ALT landmark bounds. That potential is consistent
//     (settled keys never exceed the floor, and exact backward
//     distances obey the triangle inequality), so phase 2 returns the
//     canonical largest-edge-ID path with bit-identical distances.
//
// Phase 2 never depends on where phase 1 stopped — an early or late
// phase-1 stop only weakens or strengthens the potential — which keeps
// the correctness argument independent of float rounding in mu.
//
// The two scratches must be distinct; phase 2 reuses fwd while reading
// bwd's settled state.
func bidiPathTo(g *graph.Graph, src, dst int, weight WeightFunc, lm *Landmarks, fwd, bwd *Scratch) ([]int, float64, bool, bidiStats) {
	var st bidiStats
	if src == dst {
		return nil, 0, true, st
	}
	n := g.NumVertices()
	csr := g.Freeze()
	rcsr := g.FreezeReverse()
	fwd.reset(n)
	fwd.touch(int32(src))
	fwd.dist[src] = 0
	fwd.prevE[src], fwd.prevV[src] = -1, -1
	fwd.push(int32(src))
	bwd.reset(n)
	bwd.touch(int32(dst))
	bwd.dist[dst] = 0
	bwd.prevE[dst], bwd.prevV[dst] = -1, -1
	bwd.push(int32(dst))
	inf := math.Inf(1)
	mu := inf
	bfloor := 0.0
	for {
		ft, bt := inf, inf
		if len(fwd.heap) > 0 {
			ft = fwd.dist[fwd.heap[0]]
		}
		if len(bwd.heap) > 0 {
			bt = bwd.dist[bwd.heap[0]]
		}
		if ft+bt >= mu {
			break // covers exhausted heaps too: Inf + anything >= mu
		}
		if ft <= bt {
			v := fwd.pop()
			dv := fwd.dist[v]
			if bwd.settled(v) {
				if c := dv + bwd.dist[v]; c < mu {
					mu = c
				}
			}
			fwd.relax(csr, v, dv, weight)
			mu = bridge(csr, v, dv, weight, bwd, mu)
		} else {
			v := bwd.pop()
			dv := bwd.dist[v]
			bfloor = dv
			if fwd.settled(v) {
				if c := dv + fwd.dist[v]; c < mu {
					mu = c
				}
			}
			bwd.relax(rcsr, v, dv, weight)
			mu = bridge(rcsr, v, dv, weight, fwd, mu)
		}
	}
	st.touched = len(fwd.order) + len(bwd.order)
	if math.IsInf(mu, 1) && !fwd.settled(int32(dst)) {
		// One side exhausted without bridging: src's forward ball or
		// dst's backward ball is complete and misses the other endpoint.
		// (src is always forward-settled on the very first pop, so a
		// backward settle of src always bridges; the only bridge-free
		// reachable case is the forward search exhausting a zero-weight
		// plateau containing dst before the backward side advances,
		// which the settled check catches — phase 2 then recomputes.)
		return nil, inf, false, st
	}
	st.met = true
	lmpot := lm.potential(int32(dst))
	pot := func(u int32) float64 {
		p := bfloor
		if bwd.settled(u) {
			p = bwd.dist[u]
		}
		if lmpot != nil {
			if q := lmpot(u); q > p {
				p = q
			}
		}
		return p
	}
	path, dist, ok := fwd.pathTo(g, KindAdditive, src, dst, weight, pot)
	st.touched += len(fwd.order)
	return path, dist, ok, st
}

// ShortestPathToBidi answers one single-target query with the
// bidirectional probe, bit-identical to Scratch.ShortestPathTo. lm may
// be nil (no landmark tightening of the phase-2 potential). fwd and
// bwd must be distinct scratches; the path is reconstructed in fwd.
// Incremental.PathTo drives this internally when the oracle is
// configured with Bidirectional — the standalone form exists for
// benchmarks and direct callers.
func ShortestPathToBidi(g *graph.Graph, src, dst int, weight WeightFunc, lm *Landmarks, fwd, bwd *Scratch) ([]int, float64, bool) {
	path, dist, ok, _ := bidiPathTo(g, src, dst, weight, lm, fwd, bwd)
	return path, dist, ok
}

// bridge lowers mu, the best bridged path length, through every arc
// out of v (over csr, at distance dv from its side's root) whose far
// end the other side has settled.
func bridge(csr *graph.CSR, v int32, dv float64, weight WeightFunc, other *Scratch, mu float64) float64 {
	for k, end := csr.Start[v], csr.Start[v+1]; k < end; k++ {
		if to := csr.Head[k]; other.settled(to) {
			if w := weight(int(csr.EdgeID[k])); !math.IsInf(w, 1) {
				if c := dv + w + other.dist[to]; c < mu {
					mu = c
				}
			}
		}
	}
	return mu
}

// settled reports whether v was settled (popped) by the scratch's
// current run.
func (s *Scratch) settled(v int32) bool {
	return s.stamp[v] == s.gen && s.pos[v] == -1
}
