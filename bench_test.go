// Benchmarks: one testing.B entry per experiment in DESIGN.md's index
// (tables/figures of the paper), plus microbenchmarks for the substrate
// hot paths and the ablations DESIGN.md calls out (parallel shortest
// paths, LP-bounded branch and bound). Experiment benches run at reduced
// scale; cmd/ufpbench regenerates the full tables.
package truthfulufp_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"truthfulufp/internal/auction"
	"truthfulufp/internal/bench"
	"truthfulufp/internal/core"
	"truthfulufp/internal/engine"
	"truthfulufp/internal/experiments"
	"truthfulufp/internal/lowerbound"
	"truthfulufp/internal/lp"
	"truthfulufp/internal/mcf"
	"truthfulufp/internal/mechanism"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/workload"
)

// benchConfig keeps experiment benches quick while exercising the full
// code path of every table.
var benchConfig = experiments.Config{Scale: 0.3, Seeds: 1}

func benchExperiment(b *testing.B, run func(experiments.Config) (*experiments.Report, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := run(benchConfig)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkE1Theorem31(b *testing.B)    { benchExperiment(b, experiments.E1Theorem31) }
func BenchmarkE2Staircase(b *testing.B)    { benchExperiment(b, experiments.E2Staircase) }
func BenchmarkE3SevenVertex(b *testing.B)  { benchExperiment(b, experiments.E3SevenVertex) }
func BenchmarkE4MUCA(b *testing.B)         { benchExperiment(b, experiments.E4MUCA) }
func BenchmarkE5MUCAGrid(b *testing.B)     { benchExperiment(b, experiments.E5MUCAGrid) }
func BenchmarkE6Repetitions(b *testing.B)  { benchExperiment(b, experiments.E6Repetitions) }
func BenchmarkE7Truthfulness(b *testing.B) { benchExperiment(b, experiments.E7Truthfulness) }
func BenchmarkE8Rounding(b *testing.B)     { benchExperiment(b, experiments.E8Rounding) }
func BenchmarkE9Comparison(b *testing.B)   { benchExperiment(b, experiments.E9Comparison) }
func BenchmarkF1LPGap(b *testing.B)        { benchExperiment(b, experiments.F1LPGap) }
func BenchmarkS1Scenarios(b *testing.B)    { benchExperiment(b, experiments.S1Scenarios) }

// BenchmarkBoundedUFP measures the core solver across instance sizes.
func BenchmarkBoundedUFP(b *testing.B) {
	for _, size := range []struct {
		name                string
		vertices, edges, rq int
	}{
		{"n12_m36_r60", 12, 36, 60},
		{"n24_m96_r150", 24, 96, 150},
		{"n48_m240_r300", 48, 240, 300},
	} {
		b.Run(size.name, func(b *testing.B) {
			cfg := workload.UFPConfig{
				Vertices: size.vertices, Edges: size.edges, Requests: size.rq,
				Directed: true, B: 40, CapSpread: 0.3,
				DemandMin: 0.5, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
			}
			inst, err := workload.RandomUFP(workload.NewRNG(1), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.BoundedUFP(inst, 0.25, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoundedUFPWorkers is the parallelism ablation: per-iteration
// shortest paths with 1 worker versus many.
func BenchmarkBoundedUFPWorkers(b *testing.B) {
	cfg := workload.UFPConfig{
		Vertices: 32, Edges: 128, Requests: 200, Directed: true,
		B: 40, CapSpread: 0.3,
		DemandMin: 0.5, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
	inst, err := workload.RandomUFP(workload.NewRNG(2), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 0} {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BoundedUFP(inst, 0.25, &core.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineThroughput measures the concurrent solve engine's
// jobs/sec while sweeping the inter-job worker count from 1 to
// GOMAXPROCS. The client side keeps a fixed number of submissions in
// flight (independent of the worker count) over a pool of distinct
// NoCache jobs, so ns/op tracks engine capacity, not cache luck.
func BenchmarkEngineThroughput(b *testing.B) {
	maxprocs := runtime.GOMAXPROCS(0)
	poolSize := 64
	// Keep the pool larger than the in-flight window (2*GOMAXPROCS below)
	// so no two in-flight submissions share a key and coalesce.
	if 4*maxprocs > poolSize {
		poolSize = 4 * maxprocs
	}
	rng := workload.NewRNG(42)
	instances := make([]*core.Instance, poolSize)
	for i := range instances {
		inst, err := workload.RandomUFP(rng, workload.DefaultUFPConfig())
		if err != nil {
			b.Fatal(err)
		}
		instances[i] = inst
	}

	counts := []int{1}
	if maxprocs >= 2 {
		counts = append(counts, 2)
	}
	if maxprocs > 2 {
		counts = append(counts, maxprocs)
	}
	inFlight := 2 * maxprocs
	ctx := context.Background()
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			// BlockOnFull: the benchmark intentionally keeps more jobs in
			// flight than worker+queue slots; shedding would abort it.
			e := engine.New(engine.Config{Workers: workers, BlockOnFull: true})
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			sem := make(chan struct{}, inFlight)
			for i := 0; i < b.N; i++ {
				job := engine.Job{
					Algorithm: "ufp/bounded", Eps: 0.25,
					UFP: instances[i%poolSize], NoCache: true,
				}
				wg.Add(1)
				sem <- struct{}{}
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					if _, err := e.Do(ctx, job); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed, "jobs/sec")
			}
		})
	}
}

// BenchmarkEngineCacheHit measures the served-from-cache fast path.
func BenchmarkEngineCacheHit(b *testing.B) {
	inst, err := workload.RandomUFP(workload.NewRNG(43), workload.DefaultUFPConfig())
	if err != nil {
		b.Fatal(err)
	}
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()
	ctx := context.Background()
	job := engine.Job{Algorithm: "ufp/bounded", Eps: 0.25, UFP: inst}
	if _, err := e.Do(ctx, job); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Do(ctx, job)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkDijkstraCSR measures one pooled-scratch Dijkstra over the
// frozen CSR (waxman backbone; shared with cmd/benchjson via
// internal/bench). testing.Short
// shrinks the instance, which is how CI's -benchtime=1x smoke avoids
// the full waxman-1k build.
func BenchmarkDijkstraCSR(b *testing.B) {
	bench.Group(b, "DijkstraCSR", testing.Short())
}

// BenchmarkIncrementalSolve is the original refactor's headline
// measurement: Bounded-UFP on the waxman-1k scenario with the
// dirty-source tree cache off (full-recompute) and on (incremental);
// allocations are identical, the ns/op ratio is the speedup (target
// ≥3×, see BENCH_path.json).
func BenchmarkIncrementalSolve(b *testing.B) {
	bench.Group(b, "IncrementalSolve", testing.Short())
}

// BenchmarkIncrementalBottleneck is the kind-generic cache's bottleneck
// measurement: the iterative path-min engine under BottleneckRule with
// the KindBottleneck dirty-source cache off and on (target ≥3×).
func BenchmarkIncrementalBottleneck(b *testing.B) {
	bench.Group(b, "IncrementalBottleneck", testing.Short())
}

// BenchmarkIncrementalBellman is the same measurement for LogHopsRule's
// hop-bounded Bellman-Ford tables (KindHopBounded; target ≥3×).
func BenchmarkIncrementalBellman(b *testing.B) {
	bench.Group(b, "IncrementalBellman", testing.Short())
}

// BenchmarkSingleTarget compares a full Dijkstra tree + PathTo against
// the early-exit single-target search behind the mechanism's payment
// bisection (Scratch.ShortestPathTo).
func BenchmarkSingleTarget(b *testing.B) {
	bench.Group(b, "SingleTarget", testing.Short())
}

// BenchmarkSessionAdmit is the stateful session API's headline: one
// streamed admit on a persistent AdmissionState (warm prices + path
// cache) versus the full batch online solve a stateless client re-runs
// per request.
func BenchmarkSessionAdmit(b *testing.B) {
	bench.Group(b, "SessionAdmit", testing.Short())
}

// BenchmarkScenarioCatalogSolve sweeps SolveUFP over every topology
// family at default size.
func BenchmarkScenarioCatalogSolve(b *testing.B) {
	bench.Group(b, "ScenarioCatalog", testing.Short())
}

// BenchmarkDijkstra measures the shortest-path oracle in isolation.
func BenchmarkDijkstra(b *testing.B) {
	cfg := workload.UFPConfig{
		Vertices: 200, Edges: 1200, Requests: 1, Directed: true,
		B: 10, CapSpread: 0.5,
		DemandMin: 0.5, DemandMax: 1, ValueMin: 1, ValueMax: 2,
	}
	inst, err := workload.RandomUFP(workload.NewRNG(3), cfg)
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, inst.G.NumEdges())
	for e := range w {
		w[e] = 1 / inst.G.Edge(e).Capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pathfind.Dijkstra(inst.G, i%inst.G.NumVertices(), pathfind.FromSlice(w))
	}
}

// BenchmarkSimplex measures the LP solver on a fractional UFP relaxation.
func BenchmarkSimplex(b *testing.B) {
	cfg := workload.UFPConfig{
		Vertices: 8, Edges: 20, Requests: 10, Directed: true,
		B: 5, CapSpread: 0.3,
		DemandMin: 0.4, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
	inst, err := workload.RandomUFP(workload.NewRNG(4), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FractionalUFP(inst, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexRaw measures the simplex core on a dense packing LP.
func BenchmarkSimplexRaw(b *testing.B) {
	rng := workload.NewRNG(5)
	const n, m = 60, 30
	obj := make([]float64, n)
	rows := make([][]float64, m)
	for j := range obj {
		obj[j] = rng.Float64() + 0.1
	}
	for i := range rows {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := lp.NewMaximize(n)
		for j, c := range obj {
			p.SetObjectiveCoeff(j, c)
		}
		for _, row := range rows {
			p.AddDense(row, lp.LE, 5)
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("%v %v", err, sol.Status)
		}
	}
}

// BenchmarkBoundedMUCA measures the auction solver.
func BenchmarkBoundedMUCA(b *testing.B) {
	inst, err := auction.RandomInstance(workload.NewRNG(6), auction.RandomConfig{
		Items: 30, Requests: 300, B: 60, MultSpread: 0.3,
		BundleMin: 2, BundleMax: 6, ValueMin: 0.5, ValueMax: 1.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := auction.BoundedMUCA(inst, 0.25, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepeat measures the repetitions variant (iteration count is
// pseudo-polynomial, so this is the heavy solver loop).
func BenchmarkRepeat(b *testing.B) {
	cfg := workload.UFPConfig{
		Vertices: 8, Edges: 20, Requests: 6, Directed: true,
		B: 80, CapSpread: 0.2,
		DemandMin: 0.5, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
	inst, err := workload.RandomUFP(workload.NewRNG(7), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BoundedUFPRepeat(inst, 0.2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGargKonemann measures the fractional FPTAS.
func BenchmarkGargKonemann(b *testing.B) {
	cfg := workload.UFPConfig{
		Vertices: 16, Edges: 64, Requests: 20, Directed: true,
		B: 20, CapSpread: 0.3,
		DemandMin: 0.5, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
	inst, err := workload.RandomUFP(workload.NewRNG(8), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcf.MaxProfitFlow(inst, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriticalValue measures one truthful payment both ways on
// the same instance and winner: /bisection re-runs the algorithm ≈60
// times, /exact is one counterfactual run (core.BoundedUFPCriticalCtx,
// which BoundedUFPAlg attaches to its allocations).
func BenchmarkCriticalValue(b *testing.B) {
	cfg := workload.UFPConfig{
		Vertices: 10, Edges: 24, Requests: 60, Directed: true,
		B: 30, CapSpread: 0.3,
		DemandMin: 0.4, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
	inst, err := workload.RandomUFP(workload.NewRNG(9), cfg)
	if err != nil {
		b.Fatal(err)
	}
	exact := mechanism.BoundedUFPAlg(0.25, nil)
	base, err := exact(inst)
	if err != nil {
		b.Fatal(err)
	}
	if len(base.Routed) == 0 {
		b.Fatal("nothing selected")
	}
	winner := base.Routed[0].Request
	bisection := func(in *core.Instance) (*core.Allocation, error) {
		a, err := exact(in)
		if a != nil {
			a.Critical = nil // the drivers fall back to bisection
		}
		return a, err
	}
	for _, c := range []struct {
		name string
		alg  mechanism.UFPAlgorithm
	}{{"bisection", bisection}, {"exact", exact}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mechanism.UFPCriticalValue(c.alg, inst, winner); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStaircaseEngine measures the reasonable-rule engine on the
// Figure 2 family (the E2 workhorse).
func BenchmarkStaircaseEngine(b *testing.B) {
	f := lowerbound.Staircase(16, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.IterativePathMin(f.Inst, core.EngineOptions{
			Rule: &core.ExpRule{}, Eps: 0.5, FeasibleOnly: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactOPT measures the branch-and-bound reference (with and
// without LP bounding: the pruning ablation).
func BenchmarkExactOPT(b *testing.B) {
	inst, err := auction.RandomInstance(workload.NewRNG(10), auction.RandomConfig{
		Items: 10, Requests: 18, B: 3, MultSpread: 0.5,
		BundleMin: 1, BundleMax: 4, ValueMin: 0.5, ValueMax: 1.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := auction.ExactOPT(inst); err != nil {
			b.Fatal(err)
		}
	}
}
