package pathfind

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"truthfulufp/internal/graph"
)

// TestQuickALTMatchesShortestPathTo: the ALT-pruned single-target
// search is bit-identical to the plain early-exit search — for the
// build-time weights and for monotonically bumped weights the tables
// only lower-bound — across plateau-heavy graphs where canonical
// tie-breaking does all the work.
func TestQuickALTMatchesShortestPathTo(t *testing.T) {
	f := func(seed uint64, n, m uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^77))
		nv := 3 + int(n%12)
		g := graph.RandomStronglyConnected(rng, nv, nv+int(m%30), 1, 2)
		w := plateauWeights(rng, g.NumEdges())
		lm := BuildLandmarks(g, 4, FromSlice(w))
		sc := NewScratch(nv)
		for round := 0; round < 3; round++ {
			for src := 0; src < nv; src++ {
				for dst := 0; dst < nv; dst++ {
					wantPath, wantDist, wantOK := sc.ShortestPathTo(g, src, dst, FromSlice(w))
					path, dist, ok := sc.ShortestPathToALT(g, src, dst, FromSlice(w), lm)
					if ok != wantOK || (ok && (dist != wantDist || !reflect.DeepEqual(path, wantPath))) {
						return false
					}
				}
			}
			monotoneBump(rng, w)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLandmarkBoundAdmissible: every landmark lower bound is at
// most the true distance under the build weights and stays admissible
// after monotone bumps (including +Inf residual flips).
func TestQuickLandmarkBoundAdmissible(t *testing.T) {
	f := func(seed uint64, n, m uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^55))
		nv := 3 + int(n%12)
		g := graph.RandomStronglyConnected(rng, nv, nv+int(m%30), 1, 2)
		w := plateauWeights(rng, g.NumEdges())
		lm := BuildLandmarks(g, 4, FromSlice(w))
		sc := NewScratch(nv)
		for round := 0; round < 3; round++ {
			for src := 0; src < nv; src++ {
				tr := sc.Dijkstra(g, src, FromSlice(w), nil)
				for dst := 0; dst < nv; dst++ {
					if lm.Bound(src, dst) > tr.Dist[dst] {
						return false
					}
				}
			}
			monotoneBump(rng, w)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalOracleEquivalence: an additive Incremental with
// landmark tables answers every PathTo
// identically to an oracle-less twin through a monotone bump sequence,
// with the landmark bound never violated and the oracle actually
// exercised.
func TestIncrementalOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	g := graph.RandomStronglyConnected(rng, 40, 140, 1, 2)
	w := plateauWeights(rng, g.NumEdges())
	base := append([]float64(nil), w...)
	sources := []int{0, 3, 7, 11}
	plain := NewIncremental(g, sources, nil)
	oracle := NewIncremental(g, sources, nil)
	oracle.SetOracle(OracleConfig{Landmarks: BuildLandmarks(g, 4, FromSlice(base))})
	for round := 0; round < 20; round++ {
		for slot := range sources {
			dst := rng.IntN(g.NumVertices())
			p1, d1, ok1 := plain.PathTo(slot, dst, FromSlice(w))
			p2, d2, ok2 := oracle.PathTo(slot, dst, FromSlice(w))
			if ok1 != ok2 || d1 != d2 || !reflect.DeepEqual(p1, p2) {
				t.Fatalf("round %d slot %d dst %d: plain (%v,%v,%v) != oracle (%v,%v,%v)",
					round, slot, dst, p1, d1, ok1, p2, d2, ok2)
			}
		}
		touched := monotoneBump(rng, w)
		plain.Invalidate(touched)
		oracle.Invalidate(touched)
	}
	st := oracle.CacheStats()
	if st.LandmarkViolations != 0 {
		t.Fatalf("monotone bumps must never violate the landmark bound: %+v", st)
	}
	if st.AltSearches == 0 {
		t.Fatalf("oracle never exercised: %+v", st)
	}
}

// TestOracleDisablesOnViolationPastBudget: there is no rebuild budget,
// so the first violation is past it. Lowering one weight below the
// landmark build bound (a contract violation) is caught by the lazy
// pending-edge check, counted once, and disables the tables for good;
// every PathTo before and after stays bit-identical to an oracle-less
// twin.
func TestOracleDisablesOnViolationPastBudget(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	g := graph.RandomStronglyConnected(rng, 20, 60, 1, 2)
	w := plateauWeights(rng, g.NumEdges())
	sources := []int{0, 5, 12}
	plain := NewIncremental(g, sources, nil)
	oracle := NewIncremental(g, sources, nil)
	oracle.SetOracle(OracleConfig{Landmarks: BuildLandmarks(g, 3, FromSlice(w))})
	same := func(when string) {
		t.Helper()
		for slot := range sources {
			for dst := 0; dst < g.NumVertices(); dst++ {
				p1, d1, ok1 := plain.PathTo(slot, dst, FromSlice(w))
				p2, d2, ok2 := oracle.PathTo(slot, dst, FromSlice(w))
				if ok1 != ok2 || d1 != d2 || !reflect.DeepEqual(p1, p2) {
					t.Fatalf("%s: slot %d dst %d: plain (%v,%v,%v) != oracle (%v,%v,%v)",
						when, slot, dst, p1, d1, ok1, p2, d2, ok2)
				}
			}
		}
	}
	same("before the violation")
	if st := oracle.CacheStats(); st.AltSearches == 0 || st.LandmarkViolations != 0 {
		t.Fatalf("tables must prune while the bound holds: %+v", st)
	}
	w[0] /= 4 // below the build-time lower bound
	plain.Invalidate([]int{0})
	oracle.Invalidate([]int{0})
	same("at the violation")
	pruned := oracle.CacheStats().AltSearches
	for round := 0; round < 5; round++ {
		touched := monotoneBump(rng, w)
		plain.Invalidate(touched)
		oracle.Invalidate(touched)
		same(fmt.Sprintf("round %d after the violation", round))
	}
	st := oracle.CacheStats()
	if st.LandmarkViolations != 1 {
		t.Fatalf("want exactly one counted violation: %+v", st)
	}
	if oracle.lmOK || st.AltSearches != pruned {
		t.Fatalf("tables must stay disabled after a violation: %+v", st)
	}
	if st.LandmarkRebuilds != 0 {
		t.Fatalf("tables are never rebuilt: %+v", st)
	}
}

// TestPathCacheMultiTarget: the per-slot path cache holds several
// targets at once — repeat queries over a small fan-out all hit after
// the first pass — and invalidation drops exactly the entries whose
// paths use a touched edge.
func TestPathCacheMultiTarget(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	g := graph.RandomStronglyConnected(rng, 30, 90, 1, 2)
	w := plateauWeights(rng, g.NumEdges())
	inc := NewIncremental(g, []int{0}, nil)
	targets := []int{5, 9, 14, 20}
	for _, dst := range targets {
		inc.PathTo(0, dst, FromSlice(w))
	}
	before := inc.CacheStats()
	for _, dst := range targets {
		inc.PathTo(0, dst, FromSlice(w))
	}
	after := inc.CacheStats()
	if hits := after.PathToHits - before.PathToHits; hits != int64(len(targets)) {
		t.Fatalf("second pass: want %d cache hits, got %d", len(targets), hits)
	}
	if after.PathToMisses != before.PathToMisses {
		t.Fatalf("second pass ran searches: %+v", after)
	}
}

// TestPreferSinglePolicy: the adaptive policy routes fan-out-one slots
// to single-target search, defaults to trees during warmup, and flips
// a multi-target slot to single-target search only once its observed
// dirty rate exceeds the per-target cost ratio.
func TestPreferSinglePolicy(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	g := graph.RandomStronglyConnected(rng, 20, 60, 1, 2)
	w := plateauWeights(rng, g.NumEdges())
	inc := NewIncremental(g, []int{0, 1}, nil)
	if !inc.PreferSingle(0, 1) {
		t.Fatal("fan-out one must always route to single-target search")
	}
	if inc.PreferSingle(0, 2) {
		t.Fatal("warmup slot must default to tree refreshes")
	}
	if inc.PreferSingle(0, ptCapacity+1) {
		t.Fatal("fan-out beyond the path cache must refresh trees")
	}
	// Slot 0: always dirtied between refreshes -> dirty rate 1.
	for i := 0; i < 8; i++ {
		inc.Refresh([]int{0}, FromSlice(w), 1)
		inc.InvalidateAll()
	}
	if !inc.PreferSingle(0, 2) {
		t.Fatal("always-dirty slot must route to single-target search")
	}
	// Slot 1: refreshed repeatedly with no invalidation -> dirty rate ~0.
	for i := 0; i < 8; i++ {
		inc.Refresh([]int{1}, FromSlice(w), 1)
	}
	if inc.PreferSingle(1, 2) {
		t.Fatal("clean slot must keep refreshing its tree")
	}
	st := inc.CacheStats()
	if st.PolicySingle == 0 || st.PolicyTree == 0 {
		t.Fatalf("policy decisions not counted: %+v", st)
	}
}

// TestPolicyKnobs: the adaptive policy's warm-up and cost ratio move
// its decisions, and apply to every tree kind. The tuning values are
// package constants; the test overrides the cache's copies in-package.
func TestPolicyKnobs(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	g := graph.RandomStronglyConnected(rng, 20, 60, 1, 2)
	for _, kind := range []TreeKind{KindAdditive, KindBottleneck} {
		inc := NewIncrementalKind(g, kind, []int{0}, nil, 0)
		// Simulated history: 10 demands, all dirty -> rate 1.
		inc.slotDemand[0], inc.slotDirty[0] = 10, 10
		if !inc.preferSingle(0, 2) {
			t.Fatalf("%v: always-dirty slot must route single under defaults", kind)
		}
		inc.policyWarmup = 20
		if inc.preferSingle(0, 2) {
			t.Fatalf("%v: raised warm-up must keep the slot on trees", kind)
		}
		inc.policyWarmup = 0
		if !inc.preferSingle(0, 2) {
			t.Fatalf("%v: disabled warm-up must route single", kind)
		}
		inc.slotDirty[0] = 0 // rate 0: only a zero threshold routes single
		inc.policyWarmup, inc.policyCostRatio = warmupDemands, singleCostRatio
		if inc.preferSingle(0, 2) {
			t.Fatalf("%v: default ratio must keep a clean slot on trees", kind)
		}
		inc.policyCostRatio = 0
		if !inc.preferSingle(0, 2) {
			t.Fatalf("%v: zeroed cost ratio must route every eligible slot single", kind)
		}
		inc.slotDirty[0] = 3 // rate 0.3: between 0.1·2 and the default 0.25·2
		inc.policyCostRatio = 0.1
		if !inc.preferSingle(0, 2) {
			t.Fatalf("%v: lowered cost ratio must route single at rate 0.3", kind)
		}
		inc.policyCostRatio = singleCostRatio
		if inc.preferSingle(0, 2) {
			t.Fatalf("%v: default cost ratio must keep rate 0.3 on trees", kind)
		}
	}

	// Answers never depend on the policy: a solver-style loop routing
	// each round by PreferSingle reads the full-tree answers at both
	// extremes (every round single-target; every round a tree refresh).
	for _, kind := range []TreeKind{KindAdditive, KindBottleneck} {
		for _, eager := range []bool{true, false} {
			w := plateauWeights(rng, g.NumEdges())
			inc := NewIncrementalKind(g, kind, []int{0}, nil, 0)
			inc.policyWarmup, inc.policyCostRatio = 0, 0
			if !eager {
				inc.policyWarmup = 1 << 30
			}
			sc := NewScratch(g.NumVertices())
			for round := 0; round < 12; round++ {
				targets := []int{5, 11}
				single := inc.PreferSingle(0, len(targets))
				if single != eager {
					t.Fatalf("%v eager=%v round %d: policy routed single=%v", kind, eager, round, single)
				}
				if !single {
					inc.Refresh([]int{0}, FromSlice(w), 1)
				}
				ref := sc.Dijkstra(g, 0, FromSlice(w), nil)
				if kind == KindBottleneck {
					ref = sc.Bottleneck(g, 0, FromSlice(w), nil)
				}
				for _, dst := range targets {
					var path []int
					var dist float64
					var ok bool
					if single {
						path, dist, ok = inc.PathTo(0, dst, FromSlice(w))
					} else {
						path, ok = inc.Tree(0).PathTo(dst)
						dist = inc.Tree(0).Dist[dst]
					}
					wantPath, wantOK := ref.PathTo(dst)
					if ok != wantOK || dist != ref.Dist[dst] || !reflect.DeepEqual(path, wantPath) {
						t.Fatalf("%v eager=%v round %d dst %d: answer diverged", kind, eager, round, dst)
					}
				}
				inc.Invalidate(monotoneBump(rng, w))
			}
		}
	}
}

// TestAddSourcePolicyAndOracle: slots grown by AddSource after
// SetOracle inherit a sane adaptive-policy state (warmup counters at
// zero, tree-default for multi-target fan-out) and are served by the
// configured oracle, interacting correctly with SetTargets.
func TestAddSourcePolicyAndOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 23))
	g := graph.RandomStronglyConnected(rng, 30, 100, 1, 2)
	w := plateauWeights(rng, g.NumEdges())
	inc := NewIncremental(g, nil, nil)
	inc.SetOracle(OracleConfig{Landmarks: BuildLandmarks(g, 3, FromSlice(w))})
	sc := NewScratch(g.NumVertices())
	for round := 0; round < 6; round++ {
		src := rng.IntN(g.NumVertices())
		slot := inc.AddSource(src)
		if got := inc.AddSource(src); got != slot {
			t.Fatalf("AddSource not idempotent: %d vs %d", got, slot)
		}
		if inc.slotDemand[slot] != 0 || inc.slotDirty[slot] != 0 {
			t.Fatalf("grown slot %d inherited stale counters", slot)
		}
		if inc.PreferSingle(slot, 2) {
			t.Fatal("grown slot must start in tree-default warmup")
		}
		dst := rng.IntN(g.NumVertices())
		inc.SetTargets(slot, []int{dst})
		wantPath, wantDist, wantOK := sc.ShortestPathTo(g, src, dst, FromSlice(w))
		path, dist, ok := inc.PathTo(slot, dst, FromSlice(w))
		if ok != wantOK || dist != wantDist || !reflect.DeepEqual(path, wantPath) {
			t.Fatalf("grown slot %d: oracle answer diverged", slot)
		}
		touched := monotoneBump(rng, w)
		inc.Invalidate(touched)
	}
	if st := inc.CacheStats(); st.AltSearches == 0 {
		t.Fatalf("grown slots never used the oracle: %+v", st)
	}
}

// TestBuildLandmarksShape: farthest-point selection returns distinct,
// arc-bearing landmarks and tables sized to the graph, and Bound is
// zero on the diagonal.
func TestBuildLandmarksShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := graph.RandomStronglyConnected(rng, 25, 80, 1, 2)
	w := make([]float64, g.NumEdges())
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	lm := BuildLandmarks(g, 5, FromSlice(w))
	if lm.K() != 5 {
		t.Fatalf("want 5 landmarks, got %d", lm.K())
	}
	seen := map[int32]bool{}
	for _, id := range lm.IDs() {
		if seen[id] {
			t.Fatalf("duplicate landmark %d", id)
		}
		seen[id] = true
	}
	for v := 0; v < g.NumVertices(); v++ {
		if b := lm.Bound(v, v); b != 0 {
			t.Fatalf("Bound(%d,%d) = %v, want 0", v, v, b)
		}
	}
	if lm.Bound(0, 1) < 0 || math.IsNaN(lm.Bound(0, 1)) {
		t.Fatal("bound must be a nonnegative number")
	}
}
