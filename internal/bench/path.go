// Package bench hosts the path-engine benchmark bodies shared by the
// repo-level `go test -bench` entry points (bench_test.go) and the
// cmd/benchjson snapshot tool, which records them into BENCH_path.json
// so the performance trajectory of the shortest-path substrate is
// tracked in-repo rather than anecdotally.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"truthfulufp/internal/auction"
	"truthfulufp/internal/core"
	"truthfulufp/internal/graph"
	"truthfulufp/internal/metrics"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/scenario"
	"truthfulufp/internal/workload"
)

// Case is one leaf benchmark: a slash-separated name and a standard
// testing benchmark body.
type Case struct {
	Name string
	F    func(b *testing.B)
}

// waxmanSize and friends fix the headline measurements: the waxman-1k
// scenario of the refactors' speedup targets. Quick mode shrinks every
// knob for CI smoke runs.
const (
	waxmanSize     = 1000
	waxmanRequests = 300
	solveIters     = 16

	quickSize     = 200
	quickRequests = 100
	quickIters    = 8

	// The bottleneck-rule pair runs at ε = 1: exponential prices then
	// break the waxman spanning-tree trunk (the only bottleneck-optimal
	// edges at flat prices, shared by every source) within a few
	// repricings, after which the dirty-source cache pays off. The longer
	// horizon amortizes the unavoidable first-iteration build.
	bottleneckEps   = 1.0
	bottleneckIters = 48
	quickBotIters   = 12

	// The congested-region instance of the BottleneckSingleTarget pair
	// (see congestedInstance) is a directed random network at 8n arcs.
	congestedSize = 2000
	quickCongSize = 200

	// The Bellman-Ford (log-hops) pair uses a reduced hop depth and
	// request count: a full-recompute iteration costs
	// sources × maxHops × O(m), so full size at the default depth would
	// run minutes per op without changing the measured ratio.
	bellmanHops     = 8
	bellmanIters    = 8
	bellmanRequests = 150
	quickBelHops    = 5
	quickBelIters   = 4
	quickBelReqs    = 60

	// The auction pair measures the bundle engine's dirty-request length
	// cache: per iteration the full recompute prices every remaining
	// request while the cache prices only requests sharing an item with
	// the last winner, so the ratio grows with requests/items sparsity.
	auctionItems    = 150
	auctionRequests = 2500
	auctionIters    = 600
	quickAucItems   = 40
	quickAucReqs    = 400
	quickAucIters   = 120
)

// instCache memoizes generated scenario instances across cases and
// across testing.Benchmark's repeated calls of a body with growing N.
var instCache sync.Map

func waxmanRequestCount(quick bool) int {
	if quick {
		return quickRequests
	}
	return waxmanRequests
}

func waxmanInstance(quick bool) *core.Instance {
	return waxmanSized(quick, waxmanRequestCount(quick))
}

// waxmanSized generates (and memoizes) the waxman backbone at the
// suite's size with a custom request count.
func waxmanSized(quick bool, requests int) *core.Instance {
	size := waxmanSize
	if quick {
		size = quickSize
	}
	return waxmanAt(size, requests)
}

// waxmanAt generates (and memoizes) a waxman instance at an explicit
// size and request count.
func waxmanAt(size, requests int) *core.Instance {
	key := fmt.Sprintf("waxman/%d/%d", size, requests)
	if v, ok := instCache.Load(key); ok {
		return v.(*core.Instance)
	}
	inst, err := scenario.Generate(scenario.Config{
		Topology: "waxman", Size: size, Requests: requests, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	v, _ := instCache.LoadOrStore(key, inst)
	return v.(*core.Instance)
}

// auctionInstance generates (and memoizes) the multi-unit auction
// instance of the AuctionReasonable pair.
func auctionInstance(quick bool) *auction.Instance {
	items, requests := auctionItems, auctionRequests
	if quick {
		items, requests = quickAucItems, quickAucReqs
	}
	key := fmt.Sprintf("auction/%d/%d", items, requests)
	if v, ok := instCache.Load(key); ok {
		return v.(*auction.Instance)
	}
	inst, err := auction.RandomInstance(workload.NewRNG(5), auction.RandomConfig{
		Items: items, Requests: requests, B: 60,
		MultSpread: 0.4, BundleMin: 2, BundleMax: 6,
		ValueMin: 0.5, ValueMax: 2,
	})
	if err != nil {
		panic(err)
	}
	v, _ := instCache.LoadOrStore(key, inst)
	return v.(*auction.Instance)
}

// congestedNet is the directed congested-region instance of the
// BottleneckSingleTarget pair (see congestedInstance).
type congestedNet struct {
	g     *graph.Graph
	w     []float64
	pairs [][2]int
}

// congestedInstance builds (and memoizes) a directed strongly
// connected network in which one region — the middle half of the
// vertices, think a congested pod — has had every outbound arc
// repriced 50× by skewed traffic, while arcs into and inside the
// region keep their initial 1/c prices. That asymmetry is the regime
// where goal-directed bottleneck search earns its keep: a plain
// leximax search from an outside source happily floods the cheap-to-
// enter region, but every path back out crosses a repriced arc, so
// minimax landmark tables built on the congested snapshot certify the
// whole region is a dead end and the goal-directed search never pops
// it. (On symmetric weights the strict-pruning condition essentially
// never fires and the potential is pure overhead — the caveat the
// pathfind docs spell out.) The query pairs sample outside endpoints.
func congestedInstance(quick bool) *congestedNet {
	n := congestedSize
	if quick {
		n = quickCongSize
	}
	key := fmt.Sprintf("congested/%d", n)
	if v, ok := instCache.Load(key); ok {
		return v.(*congestedNet)
	}
	rng := rand.New(rand.NewPCG(7, 11))
	g := graph.RandomStronglyConnected(rng, n, 8*n, 1, 2)
	g.Freeze()
	inRegion := func(v int) bool { return v >= n/4 && v < 3*n/4 }
	w := make([]float64, g.NumEdges())
	for e := range w {
		ed := g.Edge(e)
		w[e] = 1 / ed.Capacity
		if inRegion(ed.From) && !inRegion(ed.To) {
			w[e] *= 50
		}
	}
	var pairs [][2]int
	for len(pairs) < 64 {
		s, t := rng.IntN(n), rng.IntN(n)
		if s != t && !inRegion(s) && !inRegion(t) {
			pairs = append(pairs, [2]int{s, t})
		}
	}
	v, _ := instCache.LoadOrStore(key, &congestedNet{g: g, w: w, pairs: pairs})
	return v.(*congestedNet)
}

// PathCases returns the path-engine suite:
//
//   - DijkstraCSR/csr: one pooled-scratch Dijkstra over the waxman
//     backbone's frozen CSR.
//   - IncrementalSolve/{full-recompute,incremental}: Bounded-UFP on the
//     waxman-1k scenario with the dirty-source tree cache off and on —
//     identical allocations, the ns/op ratio is the refactor's speedup.
//   - IncrementalBottleneck/{full-recompute,incremental}: the iterative
//     path-min engine under BottleneckRule (KindBottleneck trees in the
//     kind-generic cache) with caching off and on.
//   - IncrementalBellman/{full-recompute,incremental}: the same under
//     LogHopsRule (KindHopBounded Bellman-Ford tables).
//   - SingleTarget/{full-tree,early-exit,landmark}: one (source, target)
//     query answered three ways — a full Dijkstra tree plus PathTo; the
//     plain early-exit single-target search (Scratch.ShortestPathTo);
//     and the ALT landmark-pruned search (Scratch.ShortestPathToALT),
//     the oracle the mechanism's payment runs and session admits use.
//     All three return bit-identical paths.
//   - BottleneckSingleTarget/{early-exit,landmark}: one bottleneck
//     (source, target) query on the directed congested-region network
//     (a region whose outbound arcs repriced 50×), answered by the
//     plain leximax early-exit search (Scratch.BottleneckPathTo)
//     versus the goal-directed search under the minimax landmark
//     potential (BottleneckPathToALT); both return bit-identical
//     paths, and the potential's strict bounds keep the goal-directed
//     search out of the dead-end region the plain search floods.
//   - AuctionReasonable/{full-recompute,incremental}: the iterative
//     bundle-min engine (ExpBundleRule) with the dirty-request length
//     cache off and on — identical selections, the ratio is the cache's
//     per-iteration win.
//   - SessionAdmit/{full-resolve,streamed}: the stateful session API's
//     headline — one op is either the full batch online solve a
//     stateless client pays to refresh its view per request, or one
//     streamed admit against a persistent AdmissionState with warm
//     prices and path cache.
//   - ScenarioCatalog/solve: SolveUFP across every topology family at
//     default size (gravity demands), the end-to-end catalog sweep.
func PathCases(quick bool) []Case {
	iters := solveIters
	botIters, belHops, belIters, belReqs := bottleneckIters, bellmanHops, bellmanIters, bellmanRequests
	if quick {
		iters = quickIters
		botIters, belHops, belIters, belReqs = quickBotIters, quickBelHops, quickBelIters, quickBelReqs
	}
	dijkstra := func(g *graph.Graph) func(b *testing.B) {
		return func(b *testing.B) {
			w := make([]float64, g.NumEdges())
			for e := range w {
				w[e] = 1 / g.Edge(e).Capacity
			}
			weight := pathfind.FromSlice(w)
			scratch := pathfind.NewScratch(g.NumVertices())
			var tree *pathfind.Tree
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree = scratch.Dijkstra(g, i%g.NumVertices(), weight, tree)
			}
		}
	}
	solve := func(noIncremental bool) func(b *testing.B) {
		return func(b *testing.B) {
			inst := waxmanInstance(quick)
			opt := &core.Options{Workers: 1, MaxIterations: iters, NoIncremental: noIncremental}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := core.BoundedUFP(inst, 0.25, opt)
				if err != nil {
					b.Fatal(err)
				}
				if a.Iterations == 0 {
					b.Fatal("solver admitted nothing")
				}
			}
		}
	}
	ruleSolve := func(mk func() core.Rule, eps float64, ruleIters, requests int, noInc bool) func(b *testing.B) {
		return func(b *testing.B) {
			inst := waxmanSized(quick, requests)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := core.IterativePathMin(inst, core.EngineOptions{
					Rule: mk(), Eps: eps, UseDualStop: true, Workers: 1,
					MaxIterations: ruleIters, NoIncremental: noInc,
				})
				if err != nil {
					b.Fatal(err)
				}
				if a.Iterations == 0 {
					b.Fatal("engine admitted nothing")
				}
			}
		}
	}
	bottleneck := func(noInc bool) func(b *testing.B) {
		return ruleSolve(func() core.Rule { return &core.BottleneckRule{} },
			bottleneckEps, botIters, waxmanRequestCount(quick), noInc)
	}
	bellman := func(noInc bool) func(b *testing.B) {
		return ruleSolve(func() core.Rule { return &core.LogHopsRule{MaxHops: belHops} },
			0.25, belIters, belReqs, noInc)
	}
	singleTarget := func(mode string) func(b *testing.B) {
		return func(b *testing.B) {
			inst := waxmanInstance(quick)
			g := inst.G
			g.Freeze()
			// Perturbed prices, as after a few primal-dual iterations: flat
			// 1/c weights put most vertices on a handful of distance
			// plateaus, which neuters the early exit's stop condition and
			// measures a regime the mechanism never runs in.
			rng := rand.New(rand.NewPCG(7, 11))
			w := make([]float64, g.NumEdges())
			for e := range w {
				w[e] = (1 + rng.Float64()) / g.Edge(e).Capacity
			}
			weight := pathfind.FromSlice(w)
			var lm *pathfind.Landmarks
			if mode == "landmark" {
				lm = pathfind.BuildLandmarks(g, pathfind.DefaultLandmarkCount, weight)
			}
			scratch := pathfind.NewScratch(g.NumVertices())
			var tree *pathfind.Tree
			reqs := inst.Requests
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := reqs[i%len(reqs)]
				var ok bool
				switch mode {
				case "early-exit":
					_, _, ok = scratch.ShortestPathTo(g, r.Source, r.Target, weight)
				case "landmark":
					_, _, ok = scratch.ShortestPathToALT(g, r.Source, r.Target, weight, lm)
				default: // full-tree
					tree = scratch.Dijkstra(g, r.Source, weight, tree)
					_, ok = tree.PathTo(r.Target)
				}
				if !ok {
					b.Fatal("unreachable target")
				}
			}
		}
	}
	bottleneckSingle := func(mode string) func(b *testing.B) {
		return func(b *testing.B) {
			net := congestedInstance(quick)
			g := net.g
			weight := pathfind.FromSlice(net.w)
			var lm *pathfind.Landmarks
			if mode == "landmark" {
				// Tables on the congested snapshot: bounds that already
				// see the region's repricing.
				lm = pathfind.BuildLandmarks(g, pathfind.DefaultLandmarkCount, weight).WithBottleneck(g)
			}
			scratch := pathfind.NewScratch(g.NumVertices())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := net.pairs[i%len(net.pairs)]
				var ok bool
				if mode == "landmark" {
					_, _, ok = scratch.BottleneckPathToALT(g, q[0], q[1], weight, lm)
				} else {
					_, _, ok = scratch.BottleneckPathTo(g, q[0], q[1], weight)
				}
				if !ok {
					b.Fatal("unreachable target")
				}
			}
		}
	}
	auctionSolve := func(noInc bool) func(b *testing.B) {
		return func(b *testing.B) {
			inst := auctionInstance(quick)
			aucIters := auctionIters
			if quick {
				aucIters = quickAucIters
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := auction.IterativeBundleMin(inst, auction.BundleEngineOptions{
					Rule: auction.ExpBundleRule{}, Eps: 0.25, UseDualStop: true,
					MaxIterations: aucIters, NoIncremental: noInc,
				})
				if err != nil {
					b.Fatal(err)
				}
				if a.Iterations == 0 {
					b.Fatal("bundle engine selected nothing")
				}
			}
		}
	}
	sessionAdmit := func(streamed bool) func(b *testing.B) {
		return func(b *testing.B) {
			inst := waxmanInstance(quick)
			const eps = 0.25
			b.ReportAllocs()
			if !streamed {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a, err := core.OnlineAdmission(inst, eps, nil)
					if err != nil {
						b.Fatal(err)
					}
					if a.Iterations == 0 {
						b.Fatal("batch online solve admitted nothing")
					}
				}
				return
			}
			reqs := inst.Requests
			var st *core.AdmissionState
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh state every pass through the request sequence: its
				// cost amortizes over the admits like a registration would.
				if i%len(reqs) == 0 {
					var err error
					if st, err = core.NewAdmissionState(inst.G, eps, nil); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := st.Admit(reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []Case{
		{"DijkstraCSR/csr", func(b *testing.B) {
			g := waxmanInstance(quick).G
			g.Freeze()
			dijkstra(g)(b)
		}},
		{"IncrementalSolve/full-recompute", solve(true)},
		{"IncrementalSolve/incremental", solve(false)},
		{"IncrementalBottleneck/full-recompute", bottleneck(true)},
		{"IncrementalBottleneck/incremental", bottleneck(false)},
		{"IncrementalBellman/full-recompute", bellman(true)},
		{"IncrementalBellman/incremental", bellman(false)},
		{"SingleTarget/full-tree", singleTarget("full-tree")},
		{"SingleTarget/early-exit", singleTarget("early-exit")},
		{"SingleTarget/landmark", singleTarget("landmark")},
		{"BottleneckSingleTarget/early-exit", bottleneckSingle("early-exit")},
		{"BottleneckSingleTarget/landmark", bottleneckSingle("landmark")},
		{"AuctionReasonable/full-recompute", auctionSolve(true)},
		{"AuctionReasonable/incremental", auctionSolve(false)},
		{"SessionAdmit/full-resolve", sessionAdmit(false)},
		{"SessionAdmit/streamed", sessionAdmit(true)},
		{"ScenarioCatalog/solve", func(b *testing.B) {
			var insts []*core.Instance
			for _, t := range scenario.Topologies() {
				inst, err := scenario.Generate(scenario.Config{Topology: t.Name, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				insts = append(insts, inst)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, inst := range insts {
					if _, err := core.SolveUFP(inst, 0.5, &core.Options{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
	}
}

// Group runs every case under the given top-level name as sub-
// benchmarks of b (the `go test -bench` integration).
func Group(b *testing.B, name string, quick bool) {
	prefix := name + "/"
	for _, c := range PathCases(quick) {
		if len(c.Name) > len(prefix) && c.Name[:len(prefix)] == prefix {
			b.Run(c.Name[len(prefix):], c.F)
		}
	}
}

// Entry is one measured benchmark in a snapshot.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	N           int     `json:"n"`
}

// Snapshot is the BENCH_path.json schema: benchmark name → measurement
// plus the derived headline ratios.
type Snapshot struct {
	Suite string `json:"suite"`
	Quick bool   `json:"quick,omitempty"`
	// IncrementalSpeedup is full-recompute ns/op divided by incremental
	// ns/op for Bounded-UFP on the waxman scenario (the original
	// refactor's ≥3× target; the trend gate's headline).
	IncrementalSpeedup float64 `json:"incremental_speedup"`
	// BottleneckSpeedup and BellmanSpeedup are the same ratio for the
	// BottleneckRule and LogHopsRule engines — the kind-generic cache's
	// ≥3× targets on the waxman scenario.
	BottleneckSpeedup float64 `json:"bottleneck_speedup"`
	BellmanSpeedup    float64 `json:"bellman_speedup"`
	// SingleTargetSpeedup is full-tree ns/op over landmark ns/op for one
	// (source, target) query — the full win of the mechanism's
	// oracle's default serving mode over materializing a tree. (Until
	// the ALT oracle landed this ratio was full-tree over early-exit;
	// the early-exit baseline is still measured, and LandmarkSpeedup
	// isolates the pruning's increment over it.)
	SingleTargetSpeedup float64 `json:"single_target_speedup"`
	// LandmarkSpeedup is early-exit ns/op over landmark ns/op: what ALT
	// lower-bound pruning adds on top of the plain early-exit search.
	LandmarkSpeedup float64 `json:"landmark_speedup,omitempty"`
	// BottleneckSingleTargetSpeedup is bottleneck early-exit ns/op over
	// goal-directed (minimax-landmark) ns/op for one bottleneck
	// (source, target) query on the congested-region network — what the
	// minimax tables add on top of the plain leximax early exit when
	// repricing is asymmetric.
	BottleneckSingleTargetSpeedup float64 `json:"bottleneck_single_target_speedup,omitempty"`
	// AuctionSpeedup is full-recompute ns/op over incremental ns/op for
	// the iterative bundle-min engine — the dirty-request length cache's
	// win.
	AuctionSpeedup float64 `json:"auction_speedup,omitempty"`
	// SessionAdmitSpeedup is the stateful session API's win: full
	// batch-resolve ns/op over per-admit streamed ns/op on the waxman
	// scenario (one streamed admit versus the full solve a stateless
	// client re-runs per request).
	SessionAdmitSpeedup float64 `json:"session_admit_speedup"`
	// SessionAdmitLatency is the per-admit tail-latency profile of the
	// streamed session path, measured by a dedicated pass through the
	// waxman request stream into a metrics.Histogram. Omitted in
	// snapshots predating it, so older baselines still decode strictly.
	SessionAdmitLatency *LatencyQuantiles `json:"session_admit_latency,omitempty"`
	Benchmarks          map[string]Entry  `json:"benchmarks"`
}

// LatencyQuantiles is a bucket-estimated latency profile
// (metrics.HistogramSnapshot.Quantile over the default bucket layout).
type LatencyQuantiles struct {
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	Count  int64   `json:"count"`
}

// latencyQuantiles folds a histogram into the snapshot's profile.
func latencyQuantiles(s metrics.HistogramSnapshot) *LatencyQuantiles {
	return &LatencyQuantiles{
		P50Ms:  s.Quantile(0.5) * 1e3,
		P95Ms:  s.Quantile(0.95) * 1e3,
		P99Ms:  s.Quantile(0.99) * 1e3,
		P999Ms: s.Quantile(0.999) * 1e3,
		Count:  s.Count,
	}
}

// measureSessionAdmitLatency streams the waxman request sequence
// through fresh admission states (several passes, so the sample is
// large enough for a p999) and observes each admit into a histogram —
// the same instrument the session manager runs in production.
func measureSessionAdmitLatency(quick bool) (*LatencyQuantiles, error) {
	inst := waxmanInstance(quick)
	h := metrics.NewHistogram(metrics.DefLatencyBuckets)
	passes := 4
	if quick {
		passes = 2
	}
	for p := 0; p < passes; p++ {
		st, err := core.NewAdmissionState(inst.G, 0.25, nil)
		if err != nil {
			return nil, err
		}
		for _, r := range inst.Requests {
			start := time.Now()
			if _, err := st.Admit(r); err != nil {
				return nil, err
			}
			h.Observe(time.Since(start).Seconds())
		}
	}
	return latencyQuantiles(h.Snapshot()), nil
}

// speedups maps each derived ratio to its full/baseline benchmark pair
// (numerator first). Every pair must be present in a snapshot — a
// silent zero in a committed file would read as a regression nobody
// made — and Compare gates each ratio the baseline carries.
var speedups = []struct {
	name       string
	assign     func(*Snapshot, float64)
	read       func(Snapshot) float64
	slow, fast string
}{
	{"IncrementalSolve", func(s *Snapshot, v float64) { s.IncrementalSpeedup = v },
		func(s Snapshot) float64 { return s.IncrementalSpeedup },
		"IncrementalSolve/full-recompute", "IncrementalSolve/incremental"},
	{"IncrementalBottleneck", func(s *Snapshot, v float64) { s.BottleneckSpeedup = v },
		func(s Snapshot) float64 { return s.BottleneckSpeedup },
		"IncrementalBottleneck/full-recompute", "IncrementalBottleneck/incremental"},
	{"IncrementalBellman", func(s *Snapshot, v float64) { s.BellmanSpeedup = v },
		func(s Snapshot) float64 { return s.BellmanSpeedup },
		"IncrementalBellman/full-recompute", "IncrementalBellman/incremental"},
	{"SingleTarget", func(s *Snapshot, v float64) { s.SingleTargetSpeedup = v },
		func(s Snapshot) float64 { return s.SingleTargetSpeedup },
		"SingleTarget/full-tree", "SingleTarget/landmark"},
	{"Landmark", func(s *Snapshot, v float64) { s.LandmarkSpeedup = v },
		func(s Snapshot) float64 { return s.LandmarkSpeedup },
		"SingleTarget/early-exit", "SingleTarget/landmark"},
	{"BottleneckSingleTarget", func(s *Snapshot, v float64) { s.BottleneckSingleTargetSpeedup = v },
		func(s Snapshot) float64 { return s.BottleneckSingleTargetSpeedup },
		"BottleneckSingleTarget/early-exit", "BottleneckSingleTarget/landmark"},
	{"AuctionReasonable", func(s *Snapshot, v float64) { s.AuctionSpeedup = v },
		func(s Snapshot) float64 { return s.AuctionSpeedup },
		"AuctionReasonable/full-recompute", "AuctionReasonable/incremental"},
	{"SessionAdmit", func(s *Snapshot, v float64) { s.SessionAdmitSpeedup = v },
		func(s Snapshot) float64 { return s.SessionAdmitSpeedup },
		"SessionAdmit/full-resolve", "SessionAdmit/streamed"},
}

// Run measures every case with the standard testing harness. It panics
// if the suite no longer contains a full/incremental pair a derived
// speedup is computed from.
func Run(cases []Case, quick bool) Snapshot {
	snap := Snapshot{Suite: "path", Quick: quick, Benchmarks: make(map[string]Entry, len(cases))}
	for _, c := range cases {
		r := testing.Benchmark(c.F)
		snap.Benchmarks[c.Name] = Entry{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			N:           r.N,
		}
	}
	for _, sp := range speedups {
		slow, okSlow := snap.Benchmarks[sp.slow]
		fast, okFast := snap.Benchmarks[sp.fast]
		if !okSlow || !okFast || slow.NsPerOp <= 0 || fast.NsPerOp <= 0 {
			panic(fmt.Sprintf("bench: suite is missing the %s pair", sp.name))
		}
		sp.assign(&snap, slow.NsPerOp/fast.NsPerOp)
	}
	lat, err := measureSessionAdmitLatency(quick)
	if err != nil {
		panic(fmt.Sprintf("bench: session-admit latency pass: %v", err))
	}
	snap.SessionAdmitLatency = lat
	return snap
}

// WriteJSON emits the snapshot with stable key order (json.Marshal
// sorts map keys), so committed snapshots diff cleanly.
func WriteJSON(w io.Writer, snap Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadJSON decodes a snapshot (e.g. the committed BENCH_path.json).
func ReadJSON(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return Snapshot{}, fmt.Errorf("bench: decoding snapshot: %w", err)
	}
	return snap, nil
}

// Compare is the CI trend gate: it fails when any derived speedup the
// baseline carries — IncrementalSolve, IncrementalBottleneck,
// IncrementalBellman, SingleTarget, Landmark, BottleneckSingleTarget,
// AuctionReasonable, SessionAdmit — has regressed more than
// maxRegression (a fraction, e.g. 0.25) relative to the baseline.
// Ratios absent from the baseline (older snapshots predating a pair)
// are skipped, so the gate tightens as snapshots are refreshed.
//
// The speedup ratios — full-recompute ns/op over incremental ns/op on
// the same machine and instance — are what is comparable across CI
// runners; absolute ns/op are not. They are still scale-dependent
// (quick instances show a smaller win than full-size ones), so
// comparing a quick run against a full-size baseline would always
// "regress"; Compare rejects mismatched scales outright rather than
// report nonsense.
func Compare(fresh, baseline Snapshot, maxRegression float64) error {
	if fresh.Suite != baseline.Suite {
		return fmt.Errorf("bench: comparing suite %q against baseline suite %q", fresh.Suite, baseline.Suite)
	}
	if fresh.Quick != baseline.Quick {
		return fmt.Errorf("bench: scale mismatch: fresh quick=%v vs baseline quick=%v — speedups are only comparable at equal scale", fresh.Quick, baseline.Quick)
	}
	if baseline.IncrementalSpeedup <= 0 {
		return fmt.Errorf("bench: baseline has no IncrementalSolve speedup")
	}
	for _, sp := range speedups {
		base := sp.read(baseline)
		if base <= 0 {
			continue // ratio predates this baseline
		}
		regression := 1 - sp.read(fresh)/base
		if regression > maxRegression {
			return fmt.Errorf("bench: %s speedup regressed %.0f%% (%.2fx -> %.2fx, tolerance %.0f%%)",
				sp.name, regression*100, base, sp.read(fresh), maxRegression*100)
		}
	}
	return nil
}
