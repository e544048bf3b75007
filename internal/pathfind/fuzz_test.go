package pathfind

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"truthfulufp/internal/graph"
)

// Native fuzz targets for the canonical tie-break invariants. The
// byte-level inputs only seed a PRNG, so every interesting corpus
// entry is a reproducible (graph, weights, bump-sequence) triple; the
// properties themselves are the ones the Incremental cache's
// bit-identity contract rests on.

// fuzzInstance derives a small strongly connected instance and
// plateau-heavy weights (exact ties are the regime where the canonical
// tie-break does all the work) from fuzz-chosen seeds.
func fuzzInstance(seed uint64, n, m uint8) (*graph.Graph, []float64, *rand.Rand) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	nv := 3 + int(n%12)
	g := graph.RandomStronglyConnected(rng, nv, nv+int(m%30), 1, 2)
	return g, plateauWeights(rng, g.NumEdges()), rng
}

// FuzzBottleneckLeximax: the leximax bottleneck tree stays acyclic
// (every PathTo terminates with a simple path), realizes its reported
// minimax value, and its single-target form answers bit-identically —
// before and after monotone weight bumps.
func FuzzBottleneckLeximax(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(10))
	f.Add(uint64(99), uint8(11), uint8(29))
	f.Add(uint64(123456), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint8) {
		g, w, rng := fuzzInstance(seed, n, m)
		sc := NewScratch(g.NumVertices())
		for round := 0; round < 3; round++ {
			for src := 0; src < g.NumVertices(); src++ {
				tr := sc.Bottleneck(g, src, FromSlice(w), nil)
				for dst := 0; dst < g.NumVertices(); dst++ {
					path, ok := tr.PathTo(dst)
					if !ok {
						continue
					}
					if !ValidatePath(g, src, dst, path) || !IsSimple(g, src, path) {
						t.Fatalf("src %d dst %d: non-simple or invalid leximax path", src, dst)
					}
					most := math.Inf(-1)
					for _, e := range path {
						most = math.Max(most, w[e])
					}
					if dst != src && most != tr.Dist[dst] {
						t.Fatalf("src %d dst %d: path max %v != tree dist %v", src, dst, most, tr.Dist[dst])
					}
					sp, sd, sok := sc.BottleneckPathTo(g, src, dst, FromSlice(w))
					if !sok || sd != tr.Dist[dst] || !reflect.DeepEqual(sp, path) {
						t.Fatalf("src %d dst %d: BottleneckPathTo diverged from tree", src, dst)
					}
				}
			}
			monotoneBump(rng, w)
		}
	})
}

// FuzzBottleneckALT: the goal-directed bottleneck search under the
// minimax landmark potential stays bit-identical to the plain leximax
// early-exit search AND to the full canonical leximax tree, under
// random monotone repricing of the weights the tables only lower-bound.
func FuzzBottleneckALT(f *testing.F) {
	f.Add(uint64(3), uint8(6), uint8(11))
	f.Add(uint64(88), uint8(10), uint8(27))
	f.Add(uint64(424242), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint8) {
		g, w, rng := fuzzInstance(seed, n, m)
		lm := BuildLandmarks(g, 4, FromSlice(w)).WithBottleneck(g)
		sc := NewScratch(g.NumVertices())
		for round := 0; round < 3; round++ {
			for src := 0; src < g.NumVertices(); src++ {
				tr := sc.Bottleneck(g, src, FromSlice(w), nil)
				for dst := 0; dst < g.NumVertices(); dst++ {
					wantPath, wantDist, wantOK := sc.BottleneckPathTo(g, src, dst, FromSlice(w))
					path, dist, ok := sc.BottleneckPathToALT(g, src, dst, FromSlice(w), lm)
					if ok != wantOK || (wantOK && (dist != wantDist || !reflect.DeepEqual(path, wantPath))) {
						t.Fatalf("src %d dst %d: bottleneck ALT diverged from plain search", src, dst)
					}
					treePath, treeOK := tr.PathTo(dst)
					if ok != treeOK || (ok && (dist != tr.Dist[dst] || !reflect.DeepEqual(path, treePath))) {
						t.Fatalf("src %d dst %d: bottleneck ALT diverged from full leximax tree", src, dst)
					}
				}
			}
			monotoneBump(rng, w)
		}
	})
}

// FuzzLandmarkOracle: landmark lower bounds stay admissible against a
// fresh Dijkstra under monotone bumps, and the ALT-pruned search stays
// bit-identical to the plain early-exit search.
func FuzzLandmarkOracle(f *testing.F) {
	f.Add(uint64(2), uint8(7), uint8(13))
	f.Add(uint64(77), uint8(12), uint8(28))
	f.Add(uint64(31337), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint8) {
		g, w, rng := fuzzInstance(seed, n, m)
		lm := BuildLandmarks(g, 4, FromSlice(w))
		nv := g.NumVertices()
		sc := NewScratch(nv)
		for round := 0; round < 3; round++ {
			for src := 0; src < nv; src++ {
				tr := sc.Dijkstra(g, src, FromSlice(w), nil)
				for dst := 0; dst < nv; dst++ {
					if b := lm.Bound(src, dst); b > tr.Dist[dst] {
						t.Fatalf("src %d dst %d: bound %v > dist %v", src, dst, b, tr.Dist[dst])
					}
					wantPath, wantDist, wantOK := sc.ShortestPathTo(g, src, dst, FromSlice(w))
					altPath, altDist, altOK := sc.ShortestPathToALT(g, src, dst, FromSlice(w), lm)
					if altOK != wantOK || (wantOK && (altDist != wantDist || !reflect.DeepEqual(altPath, wantPath))) {
						t.Fatalf("src %d dst %d: ALT diverged from plain search", src, dst)
					}
				}
			}
			monotoneBump(rng, w)
		}
	})
}
