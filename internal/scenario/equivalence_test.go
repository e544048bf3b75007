package scenario_test

import (
	"math"
	"reflect"
	"testing"

	"truthfulufp/internal/auction"
	"truthfulufp/internal/core"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/scenario"
	"truthfulufp/internal/session"
)

// catalogFullRule is the pre-refactor reasonable-rule implementation
// (fresh Dijkstra per group per iteration, no caching), the reference
// the incremental ExpRule must reproduce exactly.
type catalogFullRule struct {
	trees map[core.Group]*pathfind.Tree
}

func (r *catalogFullRule) Name() string { return "exp-full" }

func (r *catalogFullRule) Prepare(st *core.State) {
	r.trees = make(map[core.Group]*pathfind.Tree, len(st.ActiveGroups))
	for _, g := range st.ActiveGroups {
		r.trees[g] = pathfind.Dijkstra(st.Inst.G, g.Source, st.ExpWeight(g.Demand))
	}
}

func (r *catalogFullRule) BestLen(st *core.State, g core.Group, target int) ([]int, float64, bool) {
	tr := r.trees[g]
	if math.IsInf(tr.Dist[target], 1) {
		return nil, 0, false
	}
	p, _ := tr.PathTo(target)
	return p, tr.Dist[target], true
}

// TestCatalogIncrementalEquivalence is the refactor's acceptance gate
// over the full S1 scenario catalog (every topology × demand model):
// SolveUFP, SolveMUCA, and the reasonable iterative path-min engine
// produce identical allocations — same paths, same admitted sets under
// the default tie-break — with the incremental caches on and off.
func TestCatalogIncrementalEquivalence(t *testing.T) {
	const eps = 0.5
	for _, topo := range scenario.Topologies() {
		for _, dm := range scenario.Demands() {
			t.Run(topo.Name+"/"+dm.Name, func(t *testing.T) {
				cfg := scenario.Config{Topology: topo.Name, Demand: dm.Name, Seed: 42}
				inst, err := scenario.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}

				full, err := core.SolveUFP(inst, eps, &core.Options{NoIncremental: true})
				if err != nil {
					t.Fatal(err)
				}
				incr, err := core.SolveUFP(inst, eps, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(full.Routed, incr.Routed) ||
					full.Value != incr.Value || full.Stop != incr.Stop || full.DualBound != incr.DualBound {
					t.Fatalf("SolveUFP allocations differ with/without the incremental cache")
				}
				if err := incr.CheckFeasible(inst, false); err != nil {
					t.Fatal(err)
				}
				// The adaptive single-target oracle (the mechanism
				// adapter's mode) is bit-transparent too.
				single, err := core.SolveUFP(inst, eps, &core.Options{Adaptive: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(full.Routed, single.Routed) ||
					full.Value != single.Value || full.Stop != single.Stop || full.DualBound != single.DualBound {
					t.Fatalf("SolveUFP allocations differ with the single-target oracle on")
				}

				auc, err := scenario.GenerateAuction(cfg)
				if err != nil {
					t.Fatal(err)
				}
				afull, err := auction.SolveMUCA(auc, eps, &auction.Options{NoIncremental: true})
				if err != nil {
					t.Fatal(err)
				}
				aincr, err := auction.SolveMUCA(auc, eps, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(afull.Selected, aincr.Selected) ||
					afull.Value != aincr.Value || afull.Stop != aincr.Stop || afull.DualBound != aincr.DualBound {
					t.Fatalf("SolveMUCA selections differ with/without the bundle-sum cache")
				}

				want, err := core.IterativePathMin(inst, core.EngineOptions{
					Rule: &catalogFullRule{}, Eps: eps, FeasibleOnly: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.IterativePathMin(inst, core.EngineOptions{
					Rule: &core.ExpRule{}, Eps: eps, FeasibleOnly: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Routed, got.Routed) || want.Value != got.Value || want.Stop != got.Stop {
					t.Fatalf("reasonable engine allocations differ with/without the tree cache")
				}
			})
		}
	}
}

// TestCatalogOracleEquivalence is the next-gen path oracle's
// acceptance gate over the full S1 catalog: ALT landmark pruning and
// the adaptive refresh policy produce
// byte-identical results to the uncached, unpruned solver — for the
// batch solver, the reasonable iterative engine, and the online
// admission path. The oracle may only move work, never answers.
func TestCatalogOracleEquivalence(t *testing.T) {
	const eps = 0.5
	for _, topo := range scenario.Topologies() {
		for _, dm := range scenario.Demands() {
			t.Run(topo.Name+"/"+dm.Name, func(t *testing.T) {
				inst, err := scenario.Generate(scenario.Config{Topology: topo.Name, Demand: dm.Name, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				g := inst.G
				// Initial exponential prices (flow 0) are 1/c_e and only
				// rise — the permanent lower bound landmark tables need.
				lm := pathfind.BuildLandmarks(g, pathfind.DefaultLandmarkCount,
					func(e int) float64 { return 1 / g.Edge(e).Capacity })

				want, err := core.SolveUFP(inst, eps, &core.Options{NoIncremental: true})
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.SolveUFP(inst, eps, &core.Options{
					Adaptive: true, Landmarks: lm,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Routed, got.Routed) ||
					want.Value != got.Value || want.Stop != got.Stop || want.DualBound != got.DualBound {
					t.Fatalf("SolveUFP allocations differ with the full oracle on")
				}

				ewant, err := core.IterativePathMin(inst, core.EngineOptions{
					Rule: &core.ExpRule{}, Eps: eps, UseDualStop: true, NoIncremental: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				egot, err := core.IterativePathMin(inst, core.EngineOptions{
					Rule: &core.ExpRule{}, Eps: eps, UseDualStop: true,
					Adaptive: true, Landmarks: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ewant.Routed, egot.Routed) ||
					ewant.Value != egot.Value || ewant.Stop != egot.Stop || ewant.DualBound != egot.DualBound {
					t.Fatalf("reasonable engine allocations differ with the full oracle on")
				}

				owant, err := core.OnlineAdmission(inst, eps, &core.Options{NoIncremental: true})
				if err != nil {
					t.Fatal(err)
				}
				ogot, err := core.OnlineAdmission(inst, eps, &core.Options{Landmarks: lm})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(owant, ogot) {
					t.Fatal("online admissions differ with the oracle on")
				}
			})
		}
	}
}

// TestCatalogOnlineSessionEquivalence is the session layer's
// acceptance gate over the full S1 catalog: streaming every request of
// a scenario instance through a registered session (warm incremental
// path cache, live prices) admits exactly the requests, on exactly the
// paths, that the offline batch spelling (OnlineAdmission) admits —
// with the incremental cache on and off — and releasing then
// re-offering every admission keeps the ledger consistent without ever
// lowering a price.
func TestCatalogOnlineSessionEquivalence(t *testing.T) {
	const eps = 0.5
	for _, topo := range scenario.Topologies() {
		for _, dm := range scenario.Demands() {
			t.Run(topo.Name+"/"+dm.Name, func(t *testing.T) {
				inst, err := scenario.Generate(scenario.Config{Topology: topo.Name, Demand: dm.Name, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				batch, err := core.OnlineAdmission(inst, eps, nil)
				if err != nil {
					t.Fatal(err)
				}
				noInc, err := core.OnlineAdmission(inst, eps, &core.Options{NoIncremental: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch, noInc) {
					t.Fatal("online batch allocations differ with/without the incremental cache")
				}

				mgr := session.NewManager(session.Config{})
				sess, err := mgr.Register(inst.G, eps)
				if err != nil {
					t.Fatal(err)
				}
				var streamed []core.Routed
				var value float64
				prices := make(map[int64]float64)
				for i, r := range inst.Requests {
					d, err := sess.Admit(r)
					if err != nil {
						t.Fatalf("admit %d: %v", i, err)
					}
					if d.Admitted {
						streamed = append(streamed, core.Routed{Request: i, Path: d.Path})
						value += r.Value
						prices[d.ID] = d.Price
					}
				}
				if !reflect.DeepEqual(batch.Routed, streamed) || batch.Value != value {
					t.Fatalf("streamed admits differ from batch OnlineAdmission:\n got %v\nwant %v", streamed, batch.Routed)
				}
				if err := batch.CheckFeasible(inst, false); err != nil {
					t.Fatal(err)
				}

				// Release every admission, then re-offer each at its original
				// value: capacity is back, so none may be rejected for
				// capacity, and no quote may undercut the original price.
				ledger, err := sess.Ledger()
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range ledger {
					if _, err := sess.Release(a.ID); err != nil {
						t.Fatalf("release %d: %v", a.ID, err)
					}
				}
				for _, a := range ledger {
					q, err := sess.Quote(a.Request)
					if err != nil {
						t.Fatal(err)
					}
					if q.Reason == core.RejectCapacity {
						t.Fatalf("request %+v capacity-rejected after full release", a.Request)
					}
					if q.Admitted && q.Price < prices[a.ID] {
						t.Fatalf("quote %g undercuts the original price %g: release lowered prices", q.Price, prices[a.ID])
					}
				}
			})
		}
	}
}

// TestCatalogKindCacheEquivalence is the kind-generic cache's
// acceptance gate over the full S1 catalog: BottleneckRule
// (KindBottleneck trees) and LogHopsRule (KindHopBounded Bellman-Ford
// tables) produce byte-identical allocations with the dirty-source
// caches on (default) and off (EngineOptions.NoIncremental), for every
// topology × demand model and in both engine stop configurations.
func TestCatalogKindCacheEquivalence(t *testing.T) {
	const eps = 0.5
	rules := []struct {
		name string
		mk   func() core.Rule
	}{
		{"bottleneck", func() core.Rule { return &core.BottleneckRule{} }},
		{"log-hops", func() core.Rule { return &core.LogHopsRule{MaxHops: 10} }},
	}
	for _, topo := range scenario.Topologies() {
		for _, dm := range scenario.Demands() {
			for _, rule := range rules {
				t.Run(topo.Name+"/"+dm.Name+"/"+rule.name, func(t *testing.T) {
					inst, err := scenario.Generate(scenario.Config{Topology: topo.Name, Demand: dm.Name, Seed: 42})
					if err != nil {
						t.Fatal(err)
					}
					for _, feasibleOnly := range []bool{true, false} {
						opts := core.EngineOptions{
							Rule: rule.mk(), Eps: eps,
							FeasibleOnly: feasibleOnly, UseDualStop: !feasibleOnly,
							NoIncremental: true,
						}
						full, err := core.IterativePathMin(inst, opts)
						if err != nil {
							t.Fatal(err)
						}
						opts.Rule = rule.mk()
						opts.NoIncremental = false
						incr, err := core.IterativePathMin(inst, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(full.Routed, incr.Routed) ||
							full.Value != incr.Value || full.Stop != incr.Stop || full.DualBound != incr.DualBound {
							t.Fatalf("%s (feasibleOnly=%v): allocations differ with/without the kind cache", rule.name, feasibleOnly)
						}
						if feasibleOnly {
							// Only the residual filter certifies per-edge
							// feasibility for the non-exponential rules.
							if err := incr.CheckFeasible(inst, false); err != nil {
								t.Fatal(err)
							}
						}
					}
				})
			}
		}
	}
}
