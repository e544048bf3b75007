// Package truthfulufp is a reproduction of "Truthful Unsplittable Flow
// for Large Capacity Networks" (Azar, Gamzu, Gutner; SPAA 2007): monotone
// deterministic primal-dual algorithms for the Ω(ln m)-bounded
// unsplittable flow problem and the single-minded multi-unit
// combinatorial auction, with approximation ratio approaching e/(e-1),
// together with the critical-value payment machinery that turns them into
// truthful mechanisms, the paper's lower-bound instance families, the
// (1+ε) repetitions variant, and the baselines the paper compares
// against.
//
// This top-level package is a facade over the internal packages: it
// re-exports the instance types, the v1 solver registry, and the
// algorithm entry points a downstream user needs, plus JSON
// serialization for the CLI tools. The full machinery lives under
// internal/ (see DESIGN.md for the map):
//
//   - internal/solver: the v1 registry. Every algorithm in the module is
//     a Solver — Name() + Kind() + Solve(ctx, Input, Params) — under a
//     stable name ("ufp/solve", "muca/mechanism", ...), parameterized by
//     one unified Params block. RegisterSolver surfaces a new algorithm
//     in the engine (Job.Algorithm), ufpserve (/v1/solve), and the -alg
//     flags of ufprun/aucrun/ufpbench at once.
//
//   - internal/core: Bounded-UFP (Algorithm 1), Bounded-UFP-Repeat
//     (Algorithm 3), the reasonable iterative path minimizing engine,
//     baselines, LP-based references.
//
//   - internal/auction: Bounded-MUCA (Algorithm 2) and friends.
//
//   - internal/mechanism: critical-value payments and truthfulness
//     harness (Theorem 2.3).
//
//   - internal/lowerbound: Figures 2, 3, 4 instance families.
//
//   - internal/experiments: the table/figure reproduction harness.
//
//   - internal/engine: the concurrent solve service (worker pool,
//     in-flight deduplication, keyed result cache) behind cmd/ufpserve;
//     use it via NewEngine/Engine.Do for heavy traffic. Solves abandoned
//     by every waiter are cancelled mid-run and their workers reclaimed.
//
//   - internal/session: the stateful serving layer for the paper's
//     online setting — registered networks with persistent prices,
//     flows, and warm path caches (see "Session lifecycle" below).
//
//   - internal/shard: the horizontal scale-out layer — a bounded-load
//     consistent-hash ring and a Router fronting N engine+session
//     backends (see "Scale-out" below); use it via NewShardRouter or
//     the ufpserve -shards / -route flags.
//
//   - internal/scenario: the scenario catalog — named, seeded topology
//     families (fat-tree, Waxman backbone, scale-free, small-world,
//     metro ring-of-rings, single-sink star-of-trees) × demand models
//     (gravity, hotspot, Zipf, hose) × capacity regimes around the
//     paper's B >= ln(m)/ε² assumption; use it via GenerateScenario or
//     the cmd/ufpgen CLI, and pipe into ufprun/aucrun/ufpserve:
//
//     ufpgen -scenario fattree -seed 7 | ufprun -in -
//
// # Quick start
//
//	g := truthfulufp.NewGraph(2)
//	g.AddEdge(0, 1, 30) // capacity 30
//	inst := &truthfulufp.Instance{G: g, Requests: []truthfulufp.Request{
//		{Source: 0, Target: 1, Demand: 1, Value: 2},
//	}}
//	alloc, err := truthfulufp.SolveUFPCtx(ctx, inst, 0.5, nil)
//
// Demands must be normalized into (0, 1] with B = min edge capacity >= 1;
// use Instance.Normalized. SolveUFPCtx(ctx, inst, ε, nil) is the
// Theorem 3.1 mechanism-ready entry point: feasible, monotone, exact,
// and ((1+ε)·e/(e-1))-approximate once B >= ln(m)/ε².
//
// # The v1 calling convention: context first
//
// Every entry point has a context-first *Ctx form (SolveUFPCtx,
// BoundedMUCACtx, RunUFPMechanismCtx, ...), and the registry's
// Solver.Solve takes ctx as its first argument: the context is checked
// every main-loop iteration — and between every critical-value probe of
// a mechanism run — so a done context abandons the solve promptly and
// returns the context's error. The pre-v1 spellings (SolveUFP, ...)
// remain as thin wrappers with no context. The deprecated shims are
// gone as scheduled: Options.Ctx / AuctionOptions.Ctx have been
// removed (pass ctx to the *Ctx entry point), and the engine's Job.Kind
// enum has been removed (set Job.Algorithm to a registry name).
// Registry dispatch also applies per-solver defaults: the
// pseudo-polynomial repeat variants cap MaxIterations at
// solver.DefaultRepeatMaxIterations when a job leaves it zero.
//
// # Graph lifecycle: build → Freeze → solve
//
// Graphs are built with the mutable builder API (NewGraph, AddEdge,
// AddVertex) and then frozen into an immutable compressed-sparse-row
// (CSR) adjacency by Graph.Freeze — the form every shortest-path inner
// loop runs on. Freeze is cheap, idempotent, and safe under concurrent
// readers; the generators and the scenario catalog freeze for you, and
// every path search freezes on entry if the caller forgot. Capacity
// updates never
// invalidate the frozen form — it holds topology only — but any
// topology mutation (AddEdge, AddVertex, SubdivideEdge) drops it, so
// re-freeze (or let the next solve rebuild) after structural changes.
//
// On top of the CSR core sits an incremental path-search engine
// (internal/pathfind): per-worker search scratches with O(1) reset, and
// one dirty-source cache (Incremental) generic over the structure kind
// — additive Dijkstra trees, bottleneck trees under the canonical
// leximax key, and hop-bounded Bellman-Ford tables — exploiting that
// each primal-dual iteration raises prices only on the edges of the one
// admitted path, so only structures using those edges (restricted, for
// trees, to the paths serving each source's own request targets) are
// recomputed. Single-target queries run on a goal-directed oracle
// (Scratch.ShortestPathTo / Incremental.PathTo) instead of whole trees,
// accelerated by ALT landmark A* (tables whose lower bounds monotone
// price increases never undercut), bidirectional meet-in-the-middle
// probes over the frozen reverse CSR, minimax landmark tables that
// goal-direct bottleneck (KindBottleneck) queries, and an adaptive
// per-source policy that watches observed dirty rates and target
// fan-out to choose tree rebuilds versus oracle queries
// (Options.Adaptive / Landmarks / Bidirectional); the mechanism's
// payment bisection enables them automatically. The landmark tables
// are built once, at registration, from the initial prices: prices only
// rise, so that snapshot lower-bounds every later price and the tables
// stay valid for the whole run. They are rebuilt only if a caller ever
// breaks the monotone contract (a weight below its recorded bound),
// within a fixed violation budget past which they disable. One
// immutable table set per topology is shared process-wide through
// pathfind.SharedLandmarks (engine shards, mechanism bisection
// probes); violation rebuilds stay session-private since they snapshot
// one session's prices. Cached answers
// are bit-identical to recomputation (every kind's tie-break is
// canonical, and each acceleration provably preserves it), so the
// solvers' allocations do not depend on caching;
// Options.NoIncremental and EngineOptions.NoIncremental disable it for
// benchmarking (BENCH_path.json tracks the speedups).
//
// # Session lifecycle: register → stream → release → evict
//
// The offline entry points above take a whole Instance and return a
// whole Allocation. The session layer serves the paper's online
// admission setting instead: a network registered once holds live
// solver state — the exponential dual prices y_e = (1/c_e)·e^{εB·f_e/c_e},
// the residual flow ledger, and a warm incremental path cache — and
// each streamed request costs one single-target shortest-path query,
// not a full solve:
//
//	mgr := truthfulufp.NewSessionManager(truthfulufp.SessionConfig{})
//	sess, err := mgr.Register(g, 0.25) // validates, freezes, prices at 1/c_e
//	d, err := sess.Admit(truthfulufp.Request{Source: 0, Target: 1, Demand: 1, Value: 2})
//	// d.Admitted, d.Price, d.Path, d.ID; or d.Reason: price|capacity|no-path
//	q, err := sess.Quote(r)      // prices without admitting or mutating
//	a, err := sess.Release(d.ID) // returns capacity; prices never fall
//
// Admission follows the paper's online rule — route on the cheapest
// price path, admit iff demand·dist ≤ value, raise prices
// multiplicatively along the path — so the streamed mechanism is
// monotone and truthful; because releases return capacity without
// repricing, truthfulness survives churn too. A session's operations
// are serialized and safe for concurrent use; distinct sessions
// proceed in parallel. Managers evict least-recently-used sessions
// beyond SessionConfig.MaxSessions and lazily expire idle ones after
// SessionConfig.TTL; evicted sessions answer ErrSessionClosed. The
// same state machine is available without a manager as
// NewAdmissionState, and as the batch registry algorithm "ufp/online"
// (OnlineAdmission), whose allocations are byte-identical to streaming
// the same request sequence. Over HTTP, cmd/ufpserve exposes sessions
// at POST /v1/networks and streams admits at
// POST /v1/networks/{id}/admit (see README.md for the wire schema).
//
// # Observability
//
// Every serving layer is instrumented through the stdlib-only
// internal/metrics registry, re-exported here as NewMetricsRegistry /
// MetricsRegistry and friends. Engine.RegisterMetrics binds the
// engine's counters (job lifecycle, result-cache hits and misses,
// queue depth, worker utilization, solve-duration histogram) and its
// session manager's (live sessions, admits/rejects/quotes/releases,
// LRU-vs-TTL evictions, per-admit latency, and the fleet-wide
// incremental path-cache profile from Manager.PathCacheStats) to a
// registry, whose Handler serves the Prometheus text exposition
// format. The underlying per-state counters are also available
// programmatically: AdmissionState.CacheStats returns the
// PathCacheStats (tree refreshes, recomputed vs reused, PathTo
// hits/misses, dirty ratio) for one session. cmd/ufpserve wires all of
// this to GET /metrics, adds per-route request metrics and structured
// request logs with propagated X-Request-Id values, and gates
// load-balancer traffic on GET /v1/readyz during graceful drain (see
// the README's Operations section for the series catalog).
//
// # Scale-out: sharded serving
//
// One process, one worker pool, and one set of warm caches is a
// single-node ceiling. The shard layer (internal/shard, re-exported as
// ShardRouter) raises it horizontally: a bounded-load consistent-hash
// ring (virtual nodes, minimal remap on membership change) routes
// solve jobs by fingerprint and session operations by session id to
// one of N engine+session backends, so each shard's incremental path
// caches, landmark tables, and in-flight dedup stay hot for the keys
// it owns. Routing only places work — every backend runs the same
// deterministic solvers — so a cluster's outcomes are byte-identical
// to a single engine's. The router replaces block-on-full queueing
// with load shedding: a saturated shard fails fast with an overload
// error carrying a retry-after hint (queue depth × mean solve
// latency, jittered), which ufpserve surfaces as HTTP 429 +
// Retry-After; Config.BlockOnFull restores blocking for single-tenant
// CLI use. cmd/ufpserve wires the router in-process (-shards N), and
// its -route mode proxies misrouted session calls to static peer
// ufpserve processes (-peers, -self) with request-id propagation —
// see the README's "Cluster operations" section for flags, metric
// families (ufp_shard_*, ufp_route_*), and the ufpbench -load
// -targets replay driver that closes the loop in CI.
package truthfulufp
