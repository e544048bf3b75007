package truthfulufp

import (
	"context"
	"math/rand/v2"

	"truthfulufp/internal/auction"
	"truthfulufp/internal/core"
	"truthfulufp/internal/engine"
	"truthfulufp/internal/graph"
	"truthfulufp/internal/mechanism"
	"truthfulufp/internal/metrics"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/scenario"
	"truthfulufp/internal/session"
	"truthfulufp/internal/solver"
)

// Re-exported UFP types. See internal/core for full documentation.
type (
	// Request is a connection request (source, target, demand, value).
	Request = core.Request
	// Instance is a UFP instance: capacitated graph plus requests.
	Instance = core.Instance
	// Allocation is an algorithm outcome: routed (request, path) pairs.
	Allocation = core.Allocation
	// Routed is one (request, path) pair of an allocation.
	Routed = core.Routed
	// Options tunes the solvers (workers, tie-breaking, iteration caps).
	Options = core.Options
	// Graph is an edge-capacitated directed or undirected multigraph.
	Graph = graph.Graph
)

// Re-exported auction types. See internal/auction.
type (
	// AuctionRequest is a single-minded bundle request.
	AuctionRequest = auction.Request
	// AuctionInstance is a multi-unit combinatorial auction instance.
	AuctionInstance = auction.Instance
	// AuctionAllocation is an auction algorithm outcome.
	AuctionAllocation = auction.Allocation
)

// Mechanism outcomes (allocation + critical-value payments).
type (
	// UFPOutcome pairs a UFP allocation with per-winner payments.
	UFPOutcome = mechanism.UFPOutcome
	// AuctionOutcome pairs an auction allocation with payments.
	AuctionOutcome = mechanism.AuctionOutcome
)

// Re-exported solve-engine types. See internal/engine: a long-running
// concurrent solve service with inter-job sharding, in-flight
// deduplication, and a keyed result cache, serving exactly the same
// answers as the direct entry points below.
type (
	// Engine is the concurrent solve service (create with NewEngine).
	Engine = engine.Engine
	// EngineConfig tunes an Engine (workers, cache size, queue depth).
	EngineConfig = engine.Config
	// EngineSnapshot is a point-in-time view of an Engine's counters.
	EngineSnapshot = engine.Snapshot
	// Job is one unit of work for an Engine; Job.Algorithm names the
	// solver by registry name (the pre-v1 JobKind enum is gone).
	Job = engine.Job
	// JobResult is a completed Job's output.
	JobResult = engine.Result
	// EngineOverloadError is the concrete error behind
	// ErrEngineOverloaded, carrying the Retry-After hint.
	EngineOverloadError = engine.OverloadError
)

// The v1 solver registry. See internal/solver: every allocation
// algorithm in the module — the UFP solvers and baselines, the auction
// solvers, and both truthful mechanisms — is registered under a stable
// name and callable through one context-first signature,
// Solve(ctx, SolverInput, SolverParams). The registry is what the
// engine's Job.Algorithm, ufpserve's /v1 endpoints, and the -alg flags
// of ufprun/aucrun/ufpbench dispatch through; registering a new solver
// surfaces it in all of them at once.
type (
	// Solver is one registered allocation algorithm.
	Solver = solver.Solver
	// SolverKind classifies a solver's input/output shape.
	SolverKind = solver.Kind
	// SolverInput carries the instance a solver consumes.
	SolverInput = solver.Input
	// SolverParams is the unified v1 parameter block (ε, tie-breaks,
	// iteration caps, incremental toggles, seed).
	SolverParams = solver.Params
	// SolverOutput is a solve result (one payload field set, per kind).
	SolverOutput = solver.Output
)

// Solver kinds.
const (
	SolverUFP              = solver.KindUFP
	SolverUFPMechanism     = solver.KindUFPMechanism
	SolverAuction          = solver.KindAuction
	SolverAuctionMechanism = solver.KindAuctionMechanism
)

// RegisterSolver adds a solver to the process-wide registry (panics on
// duplicate names). It is immediately dispatchable by every consumer of
// the registry.
func RegisterSolver(s Solver) { solver.Register(s) }

// LookupSolver returns the solver registered under name.
func LookupSolver(name string) (Solver, bool) { return solver.Lookup(name) }

// Solvers returns every registered solver, sorted by name.
func Solvers() []Solver { return solver.Solvers() }

// SolverNames returns every registered solver name, sorted.
func SolverNames() []string { return solver.Names() }

// SolverDescription returns a solver's one-line description ("" if it
// has none).
func SolverDescription(s Solver) string { return solver.Description(s) }

// SolverDefaultMaxIterations returns the main-loop cap a solver applies
// when Params.MaxIterations is zero (0 = zero means unlimited). The
// pseudo-polynomial repeat variants default to
// solver.DefaultRepeatMaxIterations so registry-dispatched jobs cannot
// run away uncapped.
func SolverDefaultMaxIterations(s Solver) int { return solver.DefaultMaxIterations(s) }

// Re-exported observability types. See internal/metrics: a stdlib-only
// set of concurrency-safe instruments (counters, gauges, fixed-bucket
// latency histograms with quantile extraction) bound to a registry
// that writes the Prometheus text exposition format. Every serving
// layer registers into one registry via Engine.RegisterMetrics, which
// cmd/ufpserve serves at GET /metrics.
type (
	// MetricsRegistry is a concurrency-safe collection of metric
	// families with a text-exposition writer (create with
	// NewMetricsRegistry).
	MetricsRegistry = metrics.Registry
	// MetricsFamily is one metric name with its help text, type, and
	// label schema.
	MetricsFamily = metrics.Family
	// MetricsCounter is a monotonically increasing instrument.
	MetricsCounter = metrics.Counter
	// MetricsGauge is an instrument whose value can go up and down.
	MetricsGauge = metrics.Gauge
	// MetricsHistogram is a fixed-bucket distribution instrument with
	// p50/p95/p99/p999 extraction.
	MetricsHistogram = metrics.Histogram
	// MetricsHistogramSnapshot is a point-in-time histogram copy.
	MetricsHistogramSnapshot = metrics.HistogramSnapshot
	// PathCacheStats is the incremental path cache's observer view
	// (refresh counts, dirty-source split, PathTo hit/miss split); see
	// AdmissionState.CacheStats and SessionManager.PathCacheStats.
	PathCacheStats = pathfind.CacheStats
)

// MetricsTextContentType is the Content-Type of the exposition format
// MetricsRegistry writes.
const MetricsTextContentType = metrics.TextContentType

// MetricsDefLatencyBuckets is the default latency bucket layout
// (seconds, exponential from 1µs to ~33s).
var MetricsDefLatencyBuckets = metrics.DefLatencyBuckets

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewMetricsHistogram builds a standalone histogram over the given
// strictly increasing finite upper bounds.
func NewMetricsHistogram(bounds []float64) *MetricsHistogram { return metrics.NewHistogram(bounds) }

// MetricsExponentialBuckets returns count histogram upper bounds
// starting at start and growing by factor.
func MetricsExponentialBuckets(start, factor float64, count int) []float64 {
	return metrics.ExponentialBuckets(start, factor, count)
}

// ErrEngineClosed is returned by Engine.Do after Engine.Close.
var ErrEngineClosed = engine.ErrClosed

// ErrEngineOverloaded is matched by errors.Is when Engine.Do sheds a
// job on a full queue (EngineConfig.BlockOnFull unset). The concrete
// error is an *EngineOverloadError carrying a jittered retry hint.
var ErrEngineOverloaded = engine.ErrOverloaded

// NewEngine starts a concurrent solve service. Callers own its shutdown
// via Engine.Close.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// Re-exported session types. See internal/session and internal/core's
// AdmissionState: the stateful serving layer for the paper's online
// setting — register a network once, then stream admit / quote /
// release calls against its persistent prices, flows, and warm path
// cache. ufpserve's /v1/networks endpoints are the HTTP face of the
// same layer (via Engine.Sessions).
type (
	// SessionManager owns live sessions: registration, lookup, LRU/TTL
	// eviction (create with NewSessionManager or reach the engine's via
	// Engine.Sessions).
	SessionManager = session.Manager
	// SessionConfig tunes a SessionManager (max sessions, idle TTL).
	SessionConfig = session.Config
	// Session is one registered network's live solver state.
	Session = session.Session
	// SessionInfo is a point-in-time view of one session.
	SessionInfo = session.Info
	// SessionStats is a manager's fleet-wide counters.
	SessionStats = session.Stats
	// AdmissionState is the persistent online solver state a Session
	// wraps (prices, flows, ledger, warm path cache); use it directly
	// for single-threaded embedding without manager lifecycle.
	AdmissionState = core.AdmissionState
	// AdmitDecision is the outcome of one admission or quote.
	AdmitDecision = core.Decision
	// RejectReason says why an admission was declined ("no-path",
	// "price", "capacity").
	RejectReason = core.RejectReason
	// AdmittedRequest is one live ledger entry of an admission state.
	AdmittedRequest = core.AdmittedRequest
)

// Reject reasons (stable wire values).
const (
	RejectNoPath   = core.RejectNoPath
	RejectPrice    = core.RejectPrice
	RejectCapacity = core.RejectCapacity
)

// ErrSessionClosed is returned by session operations after the session
// was closed or evicted.
var ErrSessionClosed = session.ErrSessionClosed

// NewSessionManager builds a standalone session manager. Servers
// normally use the engine's (Engine.Sessions), which shares the
// engine's scratch pool.
func NewSessionManager(cfg SessionConfig) *SessionManager { return session.NewManager(cfg) }

// NewAdmissionState builds the online solver state for a network (see
// core.NewAdmissionState). The graph is frozen; eps is the accuracy
// parameter ε in (0,1].
func NewAdmissionState(g *Graph, eps float64, opt *Options) (*AdmissionState, error) {
	return core.NewAdmissionState(g, eps, opt)
}

// Scenario catalog re-exports. See internal/scenario: named, seeded,
// parameterized generators of realistic instance families (datacenter
// fat-trees, ISP backbones, scale-free/small-world graphs, metro rings,
// single-sink star-of-trees) × demand models (gravity, hotspot, Zipf,
// hose) × capacity regimes. cmd/ufpgen is the CLI front end.
type (
	// ScenarioConfig names and parameterizes one scenario.
	ScenarioConfig = scenario.Config
	// ScenarioTopology is a named topology family in the catalog.
	ScenarioTopology = scenario.Topology
	// ScenarioDemandModel is a named demand model in the catalog.
	ScenarioDemandModel = scenario.DemandModel
)

// GenerateScenario builds a scenario's UFP instance, deterministic in
// (topology, demand, params, seed).
func GenerateScenario(cfg ScenarioConfig) (*Instance, error) { return scenario.Generate(cfg) }

// GenerateScenarioAuction builds a scenario's auction instance by the
// path-bundle reduction.
func GenerateScenarioAuction(cfg ScenarioConfig) (*AuctionInstance, error) {
	return scenario.GenerateAuction(cfg)
}

// ScenarioTopologies lists the registered topology families by name.
func ScenarioTopologies() []ScenarioTopology { return scenario.Topologies() }

// ScenarioDemands lists the registered demand models by name.
func ScenarioDemands() []ScenarioDemandModel { return scenario.Demands() }

// NewGraph returns an empty directed graph with n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewUndirectedGraph returns an empty undirected graph with n vertices.
func NewUndirectedGraph(n int) *Graph { return graph.NewUndirected(n) }

// The free functions below are the pre-v1 entry points, kept as thin
// wrappers: each is equivalent to dispatching its registry name (noted
// per function) through LookupSolver(...).Solve with a background
// context. The *Ctx variants are the context-first v1 spellings of the
// same calls.

// SolveUFP runs the paper's headline algorithm with the Theorem 3.1
// calling convention (Bounded-UFP with accuracy ε/6): feasible, monotone,
// exact, and ((1+ε)·e/(e-1))-approximate for B >= ln(m)/ε²-bounded
// instances. Registry name: "ufp/solve".
func SolveUFP(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.SolveUFP(inst, eps, opt)
}

// SolveUFPCtx is SolveUFP under a context (checked every main-loop
// iteration).
func SolveUFPCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.SolveUFPCtx(ctx, inst, eps, opt)
}

// BoundedUFP runs Algorithm 1 with the raw accuracy parameter (see
// internal/core.BoundedUFP for the exact semantics and the dual bound).
// Registry name: "ufp/bounded".
func BoundedUFP(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.BoundedUFP(inst, eps, opt)
}

// BoundedUFPCtx is BoundedUFP under a context.
func BoundedUFPCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.BoundedUFPCtx(ctx, inst, eps, opt)
}

// SolveUFPRepeat runs Algorithm 3 with the Theorem 5.1 convention:
// (1+ε)-approximate when repetitions are allowed. Registry name:
// "ufp/repeat".
func SolveUFPRepeat(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.SolveUFPRepeat(inst, eps, opt)
}

// SolveUFPRepeatCtx is SolveUFPRepeat under a context.
func SolveUFPRepeatCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.SolveUFPRepeatCtx(ctx, inst, eps, opt)
}

// SequentialPrimalDual is the single-pass exponential-price baseline
// (our stand-in for the ≈e prior art); also monotone. Registry name:
// "ufp/sequential".
func SequentialPrimalDual(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.SequentialPrimalDual(inst, eps, opt)
}

// SequentialPrimalDualCtx is SequentialPrimalDual under a context.
func SequentialPrimalDualCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.SequentialPrimalDualCtx(ctx, inst, eps, opt)
}

// OnlineAdmission is the batch spelling of the session layer's online
// admission rule: it streams the instance's requests in input order
// through a fresh AdmissionState — pure-price routing plus a
// residual-capacity post-check, identical step for step to what a
// session serves — and reports the admitted set. Registry name:
// "ufp/online".
func OnlineAdmission(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.OnlineAdmission(inst, eps, opt)
}

// OnlineAdmissionCtx is OnlineAdmission under a context.
func OnlineAdmissionCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return core.OnlineAdmissionCtx(ctx, inst, eps, opt)
}

// GreedyByDensity is the classic value-density greedy baseline.
// Registry name: "ufp/greedy".
func GreedyByDensity(inst *Instance, opt *Options) (*Allocation, error) {
	return core.GreedyByDensity(inst, opt)
}

// GreedyByDensityCtx is GreedyByDensity under a context.
func GreedyByDensityCtx(ctx context.Context, inst *Instance, opt *Options) (*Allocation, error) {
	return core.GreedyByDensityCtx(ctx, inst, opt)
}

// RandomizedRounding is the non-truthful LP-rounding baseline; rng makes
// it deterministic per seed. Registry name: "ufp/rounding" (which
// derives its rng from SolverParams.Seed as rand.NewPCG(seed, 0)).
func RandomizedRounding(inst *Instance, rng *rand.Rand) (*Allocation, error) {
	return core.RandomizedRounding(inst, rng, core.RoundingOptions{})
}

// RandomizedRoundingCtx is RandomizedRounding under a context (checked
// before the LP solve and per rounding attempt).
func RandomizedRoundingCtx(ctx context.Context, inst *Instance, rng *rand.Rand) (*Allocation, error) {
	return core.RandomizedRoundingCtx(ctx, inst, rng, core.RoundingOptions{})
}

// AuctionOptions tune the auction solvers (cancellation, tie-breaking,
// iteration caps). See internal/auction.Options.
type AuctionOptions = auction.Options

// SolveMUCA runs Algorithm 2 with the Theorem 4.1 calling convention
// (Bounded-MUCA with accuracy ε/6). opt may be nil. Registry name:
// "muca/solve".
func SolveMUCA(inst *AuctionInstance, eps float64, opt *AuctionOptions) (*AuctionAllocation, error) {
	return auction.SolveMUCA(inst, eps, opt)
}

// SolveMUCACtx is SolveMUCA under a context.
func SolveMUCACtx(ctx context.Context, inst *AuctionInstance, eps float64, opt *AuctionOptions) (*AuctionAllocation, error) {
	return auction.SolveMUCACtx(ctx, inst, eps, opt)
}

// BoundedMUCA runs Algorithm 2 with the raw accuracy parameter. opt may
// be nil. Registry name: "muca/bounded".
func BoundedMUCA(inst *AuctionInstance, eps float64, opt *AuctionOptions) (*AuctionAllocation, error) {
	return auction.BoundedMUCA(inst, eps, opt)
}

// BoundedMUCACtx is BoundedMUCA under a context.
func BoundedMUCACtx(ctx context.Context, inst *AuctionInstance, eps float64, opt *AuctionOptions) (*AuctionAllocation, error) {
	return auction.BoundedMUCACtx(ctx, inst, eps, opt)
}

// RunUFPMechanism runs Bounded-UFP(eps) and charges every winner its
// critical value: the truthful mechanism of Corollary 3.2. Registry
// name: "ufp/mechanism".
func RunUFPMechanism(inst *Instance, eps float64, opt *Options) (*UFPOutcome, error) {
	return mechanism.RunUFPMechanism(mechanism.BoundedUFPAlg(eps, opt), inst)
}

// RunUFPMechanismCtx is RunUFPMechanism under a context: the context
// reaches both the mechanism driver (between payments) and every
// critical-value probe's main loop.
func RunUFPMechanismCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*UFPOutcome, error) {
	return mechanism.RunUFPMechanismCtx(ctx, mechanism.BoundedUFPAlgCtx(ctx, eps, opt), inst)
}

// RunAuctionMechanism runs Bounded-MUCA(eps, opt) with critical-value
// payments: the truthful mechanism of Corollary 4.2, truthful even for
// unknown single-minded agents. opt may be nil; like the UFP sibling, a
// non-nil opt reaches every critical-value probe, so opt.Ctx (or better,
// RunAuctionMechanismCtx) cancels mechanism runs mid-search. Registry
// name: "muca/mechanism".
func RunAuctionMechanism(inst *AuctionInstance, eps float64, opt *AuctionOptions) (*AuctionOutcome, error) {
	return mechanism.RunAuctionMechanism(mechanism.BoundedMUCAAlg(eps, opt), inst)
}

// RunAuctionMechanismCtx is RunAuctionMechanism under a context.
func RunAuctionMechanismCtx(ctx context.Context, inst *AuctionInstance, eps float64, opt *AuctionOptions) (*AuctionOutcome, error) {
	return mechanism.RunAuctionMechanismCtx(ctx, mechanism.BoundedMUCAAlgCtx(ctx, eps, opt), inst)
}
