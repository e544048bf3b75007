package core_test

import (
	"math"
	"reflect"
	"testing"

	"truthfulufp/internal/core"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/workload"
)

// allocationsIdentical compares the full outcome: same requests, same
// paths, same order, same diagnostics.
func allocationsIdentical(t *testing.T, label string, a, b *core.Allocation) {
	t.Helper()
	if !reflect.DeepEqual(a.Routed, b.Routed) {
		t.Fatalf("%s: routed (request, path) sequences differ:\n full: %v\n incr: %v", label, a.Routed, b.Routed)
	}
	if a.Value != b.Value || a.Iterations != b.Iterations || a.Stop != b.Stop || a.DualBound != b.DualBound {
		t.Fatalf("%s: diagnostics differ: full {v=%v it=%d stop=%v dual=%v} vs incr {v=%v it=%d stop=%v dual=%v}",
			label, a.Value, a.Iterations, a.Stop, a.DualBound, b.Value, b.Iterations, b.Stop, b.DualBound)
	}
}

// TestIncrementalMatchesFullRecomputeSolvers: the dirty-source cache is
// an optimization, not a semantic change — BoundedUFP and
// BoundedUFPRepeat produce identical allocations (paths included) with
// the cache on and off, across random instances of both orientations.
func TestIncrementalMatchesFullRecomputeSolvers(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		cfg := workload.UFPConfig{
			Vertices: 16 + int(seed)*4, Edges: 60 + int(seed)*12,
			Requests: 80, Directed: seed%2 == 0,
			B: 30, CapSpread: 0.3,
			DemandMin: 0.3, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
		}
		inst, err := workload.RandomUFP(workload.NewRNG(seed+50), cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := core.BoundedUFP(inst, 0.3, &core.Options{NoIncremental: true})
		if err != nil {
			t.Fatal(err)
		}
		incr, err := core.BoundedUFP(inst, 0.3, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocationsIdentical(t, "bounded", full, incr)

		// Parallel refresh must agree with serial too.
		par, err := core.BoundedUFP(inst, 0.3, &core.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		allocationsIdentical(t, "bounded-parallel", full, par)

		rfull, err := core.BoundedUFPRepeat(inst, 0.3, &core.Options{NoIncremental: true, MaxIterations: 200})
		if err != nil {
			t.Fatal(err)
		}
		rincr, err := core.BoundedUFPRepeat(inst, 0.3, &core.Options{MaxIterations: 200})
		if err != nil {
			t.Fatal(err)
		}
		allocationsIdentical(t, "repeat", rfull, rincr)
	}
}

// TestPolicyKnobsInvariance: the adaptive refresh policy only moves
// work between tree refreshes and single-target searches — allocations
// under it are identical to a full recompute. The policy's
// tuning values are pathfind constants; pathfind's TestPolicyKnobs
// drives them to both extremes.
func TestPolicyKnobsInvariance(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		inst := randomInstance(t, seed+70, workload.UFPConfig{
			Vertices: 18, Edges: 70, Requests: 60, Directed: seed%2 == 0,
			B: 30, CapSpread: 0.3,
			DemandMin: 0.3, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
		})
		want, err := core.BoundedUFP(inst, 0.3, &core.Options{NoIncremental: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.BoundedUFP(inst, 0.3, &core.Options{Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		allocationsIdentical(t, "bounded/adaptive", want, got)

		ewant, err := core.IterativePathMin(inst, core.EngineOptions{
			Rule: &core.ExpRule{}, Eps: 0.3, UseDualStop: true, NoIncremental: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		egot, err := core.IterativePathMin(inst, core.EngineOptions{
			Rule: &core.ExpRule{}, Eps: 0.3, UseDualStop: true, Adaptive: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		allocationsIdentical(t, "engine/adaptive", ewant, egot)
	}
}

// TestSharedKeyParallelPrepare pins the duplicate-slot hazard: with
// FeasibleOnly=false every demand class shares one tree cache, so a
// source that appears under several distinct demands yields the same
// cache slot once per group. Refresh must deduplicate those slots —
// otherwise two Prepare workers recompute one tree concurrently (a data
// race under -race, garbage trees in production). Workers is pinned > 1
// so the parallel path runs even on single-CPU CI.
func TestSharedKeyParallelPrepare(t *testing.T) {
	inst, err := workload.RandomUFP(workload.NewRNG(31), workload.UFPConfig{
		Vertices: 10, Edges: 40, Requests: 60, Directed: true,
		B: 30, CapSpread: 0.3,
		DemandMin: 0.2, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 60 requests over 10 vertices with continuous random demands: every
	// source carries many distinct demand classes.
	for _, mk := range []func() core.Rule{
		func() core.Rule { return &core.ExpRule{} },
		func() core.Rule { return &core.HopRule{} },
	} {
		serial, err := core.IterativePathMin(inst, core.EngineOptions{
			Rule: mk(), Eps: 0.3, UseDualStop: true, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := core.IterativePathMin(inst, core.EngineOptions{
			Rule: mk(), Eps: 0.3, UseDualStop: true, Workers: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		allocationsIdentical(t, "shared-key parallel", serial, parallel)
	}
}

// fullRecomputeRule is the pre-refactor rule implementation: a fresh
// Dijkstra tree per active group, every iteration, no caching. It is
// the reference the cached ExpRule/HopRule must match exactly.
type fullRecomputeRule struct {
	name   string
	weight func(st *core.State, demand float64) pathfind.WeightFunc
	trees  map[core.Group]*pathfind.Tree
}

func (r *fullRecomputeRule) Name() string { return r.name }

func (r *fullRecomputeRule) Prepare(st *core.State) {
	r.trees = make(map[core.Group]*pathfind.Tree, len(st.ActiveGroups))
	for _, g := range st.ActiveGroups {
		r.trees[g] = pathfind.Dijkstra(st.Inst.G, g.Source, r.weight(st, g.Demand))
	}
}

func (r *fullRecomputeRule) BestLen(st *core.State, g core.Group, target int) ([]int, float64, bool) {
	tr := r.trees[g]
	if math.IsInf(tr.Dist[target], 1) {
		return nil, 0, false
	}
	p, _ := tr.PathTo(target)
	return p, tr.Dist[target], true
}

// TestIncrementalMatchesFullRecomputeRules: the tree-cached reasonable
// rules produce allocations identical to per-iteration full
// recomputation, in both engine configurations (residual-feasible and
// dual-stop).
func TestIncrementalMatchesFullRecomputeRules(t *testing.T) {
	inst, err := workload.RandomUFP(workload.NewRNG(77), workload.UFPConfig{
		Vertices: 20, Edges: 80, Requests: 120, Directed: true,
		B: 25, CapSpread: 0.4,
		DemandMin: 0.3, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cached core.Rule
		full   *fullRecomputeRule
	}{
		{&core.ExpRule{}, &fullRecomputeRule{name: "exp-full",
			weight: func(st *core.State, d float64) pathfind.WeightFunc { return st.ExpWeight(d) }}},
		{&core.HopRule{}, &fullRecomputeRule{name: "hops-full",
			weight: func(st *core.State, d float64) pathfind.WeightFunc { return st.UnitWeight(d) }}},
	}
	for _, feasibleOnly := range []bool{true, false} {
		for _, tc := range cases {
			opts := core.EngineOptions{
				Rule: tc.full, Eps: 0.3,
				FeasibleOnly: feasibleOnly, UseDualStop: !feasibleOnly,
			}
			want, err := core.IterativePathMin(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Rule = tc.cached
			got, err := core.IterativePathMin(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			allocationsIdentical(t, tc.full.name, want, got)
			if err := got.CheckFeasible(inst, false); err != nil {
				t.Fatal(err)
			}
		}
	}
}
