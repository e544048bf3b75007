// Package engine is the concurrent solve service behind cmd/ufpserve: a
// long-running worker pool that accepts UFP/MUCA solve and mechanism
// jobs, shards them across inter-job workers (each solve additionally
// using core.Options.Workers for intra-solve parallelism), deduplicates
// identical jobs in flight, and memoizes results in a keyed LRU cache
// (instance fingerprint + algorithm name + parameters). Jobs name their
// algorithm by solver registry name (Job.Algorithm) and execute by
// dispatching through internal/solver, so a newly registered solver is
// servable with no engine change. Every job is a pure function of its instance and
// parameters, so coalescing and caching never change results — an
// engine answer is identical to a direct call of the corresponding
// algorithm.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"truthfulufp/internal/auction"
	"truthfulufp/internal/core"
	"truthfulufp/internal/mechanism"
	"truthfulufp/internal/metrics"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/session"
	"truthfulufp/internal/solver"
	"truthfulufp/internal/stats"
)

// Job is one unit of work. The algorithm is named by Algorithm (a
// solver registry name); exactly one of UFP and Auction must be set,
// matching what the algorithm consumes. Instances must not be mutated
// after submission. (The pre-v1 Kind enum aliases have been removed;
// Algorithm is the only spelling.)
type Job struct {
	// Algorithm is the solver registry name to run ("ufp/solve",
	// "muca/mechanism", ...; see internal/solver.Names).
	Algorithm string
	// Eps is the accuracy parameter ε (ignored by solvers that do not
	// consume one, e.g. "ufp/greedy").
	Eps float64
	// Seed parameterizes randomized solvers ("ufp/rounding"); ignored —
	// including by the cache key — for deterministic ones.
	Seed uint64
	// MaxIterations caps iterative main loops (0 = unlimited). Essential
	// for the repeat variants, whose iteration count is pseudo-polynomial.
	MaxIterations int
	// UFP is the instance for UFP-consuming algorithms.
	UFP *core.Instance
	// Auction is the instance for auction-consuming algorithms.
	Auction *auction.Instance
	// NoCache bypasses the result cache (the job still coalesces with an
	// identical in-flight job).
	NoCache bool
}

// algorithm returns the job's registry name.
func (j Job) algorithm() string { return j.Algorithm }

// resolve maps the job to its registered solver.
func (j Job) resolve() (solver.Solver, error) {
	if j.Algorithm == "" {
		return nil, fmt.Errorf("engine: job names no algorithm (set Job.Algorithm)")
	}
	s, ok := solver.Lookup(j.Algorithm)
	if !ok {
		return nil, fmt.Errorf("engine: unknown algorithm %q", j.Algorithm)
	}
	return s, nil
}

func (j Job) validate() (solver.Solver, error) {
	s, err := j.resolve()
	if err != nil {
		return nil, err
	}
	name := s.Name()
	if s.Kind().IsUFP() {
		if j.UFP == nil {
			return nil, fmt.Errorf("engine: %s job needs a UFP instance", name)
		}
		if j.UFP.G == nil {
			// Caught here so key() never dereferences a nil graph; the
			// solvers would reject the instance with the same diagnosis.
			return nil, fmt.Errorf("engine: %s job instance has no graph", name)
		}
		if j.Auction != nil {
			return nil, fmt.Errorf("engine: %s job must not carry an auction instance", name)
		}
	} else {
		if j.Auction == nil {
			return nil, fmt.Errorf("engine: %s job needs an auction instance", name)
		}
		if j.UFP != nil {
			return nil, fmt.Errorf("engine: %s job must not carry a UFP instance", name)
		}
	}
	return s, nil
}

// Result is a completed job's output. Exactly one of the four payload
// fields is set, matching the solver's kind (see solver.Kind). Results
// may be shared between callers via the cache, so they must be treated
// as immutable.
type Result struct {
	// Allocation is set for solver.KindUFP algorithms ("ufp/solve",
	// "ufp/bounded", "ufp/repeat", "ufp/sequential", "ufp/greedy",
	// "ufp/rounding", ...).
	Allocation *core.Allocation
	// AuctionAllocation is set for solver.KindAuction algorithms.
	AuctionAllocation *auction.Allocation
	// UFPOutcome is set for solver.KindUFPMechanism algorithms.
	UFPOutcome *mechanism.UFPOutcome
	// AuctionOutcome is set for solver.KindAuctionMechanism algorithms.
	AuctionOutcome *mechanism.AuctionOutcome
	// Elapsed is the wall-clock solve time of the job's single execution
	// (shared verbatim by coalesced and cached answers).
	Elapsed time.Duration
	// CacheHit reports that this answer was served from the result cache
	// without running (or waiting for) the algorithm.
	CacheHit bool
}

// Config tunes an Engine.
type Config struct {
	// Workers bounds concurrent jobs (inter-job sharding); 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// SolveWorkers is passed to core.Options.Workers for intra-solve
	// parallelism. 0 means 1: with many jobs in flight, one core per solve
	// avoids oversubscription; raise it for latency-sensitive lone jobs.
	SolveWorkers int
	// CacheSize bounds the result cache (entries, LRU eviction). 0 means
	// DefaultCacheSize; negative disables caching entirely.
	CacheSize int
	// QueueDepth bounds the pending-job queue; 0 means 4×workers. A full
	// queue sheds new executions with ErrOverloaded (see BlockOnFull).
	QueueDepth int
	// BlockOnFull restores the pre-shedding behavior: Do blocks
	// (respecting its context) when the queue is full instead of failing
	// fast with ErrOverloaded. CLIs driving a private engine at full
	// throttle want this; servers should leave it off so overload
	// surfaces as backpressure (429 + Retry-After) instead of unbounded
	// queueing delay.
	BlockOnFull bool
	// MaxSessions bounds live stateful sessions (LRU eviction beyond
	// it); 0 means session.DefaultMaxSessions, negative unbounded. See
	// Sessions.
	MaxSessions int
	// SessionTTL expires sessions idle longer than this (0 = never).
	SessionTTL time.Duration
	// SessionIDPrefix is prepended to generated session ids (see
	// session.Config.IDPrefix). ufpserve's route mode sets "p<i>." so a
	// session id names its owning node.
	SessionIDPrefix string
}

// DefaultCacheSize is the result-cache capacity when Config.CacheSize is
// zero.
const DefaultCacheSize = 1024

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("engine: closed")

// ErrOverloaded is the sentinel matched by errors.Is when Do sheds a
// job because the queue is full (Config.BlockOnFull unset). The
// concrete error is an *OverloadError carrying a retry hint.
var ErrOverloaded = errors.New("engine: overloaded")

// OverloadError is the error returned for shed jobs. RetryAfter is a
// jittered estimate of when a slot should free up — current queue
// depth times the mean solve latency, divided across the worker pool —
// which ufpserve surfaces as the Retry-After header of its 429.
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("engine: overloaded (queue full); retry in %s", e.RetryAfter.Round(time.Millisecond))
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// call is one in-flight execution that any number of submitters may wait
// on (singleflight).
type call struct {
	done chan struct{}
	res  *Result
	err  error
	// cacheable records whether any submitter sharing this call wants the
	// result cached (a NoCache leader must not suppress caching for a
	// cache-willing coalesced waiter). Guarded by Engine.flightMu.
	cacheable bool
	// waiters counts the Do calls currently waiting on this execution;
	// when the last one abandons (context done), cancel fires and the
	// running solver returns early, reclaiming its worker. Guarded by
	// Engine.flightMu.
	waiters int
	// runCtx is the execution's context, cancelled by the last departing
	// waiter (and after completion, to release the context's resources).
	runCtx context.Context
	cancel context.CancelFunc
}

// Engine is the concurrent solve service. Create with New, submit with
// Do, shut down with Close. All methods are safe for concurrent use.
type Engine struct {
	cfg   Config
	queue chan func()
	wg    sync.WaitGroup

	mu       sync.RWMutex // guards closed and sends on queue
	closed   bool
	flightMu sync.Mutex // guards inflight
	inflight map[string]*call
	cache    *lruCache // nil when caching is disabled
	// paths is the shortest-path scratch pool shared by every job the
	// worker pool executes: steady-state solving reuses a bounded set of
	// Dijkstra scratches (≈ workers × intra-solve parallelism) instead of
	// allocating fresh ones per job.
	paths *pathfind.Pool
	// sessions is the stateful serving side: registered networks with
	// live online-admission state, dispatched beside the batch job pool
	// and drawing scratch buffers from the same paths pool.
	sessions *session.Manager

	start     time.Time
	submitted stats.Counter
	completed stats.Counter
	hits      stats.Counter
	misses    stats.Counter
	coalesced stats.Counter
	failures  stats.Counter
	cancelled stats.Counter
	shed      stats.Counter
	latency   stats.ConcurrentSummary // per-execution solve seconds
	// busy gauges workers currently executing a task; together with
	// len(queue) it is the backpressure signal the scale-out work reads.
	busy metrics.Gauge
	// latencySec mirrors latency into fixed buckets for tail-quantile
	// extraction; always allocated, adopted by RegisterMetrics.
	latencySec *metrics.Histogram
}

// New starts an engine with cfg.Workers worker goroutines.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SolveWorkers <= 0 {
		cfg.SolveWorkers = 1
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	e := &Engine{
		cfg:        cfg,
		queue:      make(chan func(), cfg.QueueDepth),
		inflight:   make(map[string]*call),
		paths:      pathfind.NewPool(),
		start:      time.Now(),
		latencySec: metrics.NewHistogram(metrics.DefLatencyBuckets),
	}
	e.sessions = session.NewManager(session.Config{
		MaxSessions: cfg.MaxSessions,
		TTL:         cfg.SessionTTL,
		PathPool:    e.paths,
		IDPrefix:    cfg.SessionIDPrefix,
	})
	if cfg.CacheSize > 0 {
		e.cache = newLRUCache(cfg.CacheSize)
	}
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for task := range e.queue {
				e.busy.Inc()
				task()
				e.busy.Dec()
			}
		}()
	}
	return e
}

// Workers returns the engine's inter-job worker count.
func (e *Engine) Workers() int { return e.cfg.Workers }

// QueueDepth returns the number of tasks currently waiting in the job
// queue — the live backpressure signal behind the server's
// saturation-aware readiness.
func (e *Engine) QueueDepth() int { return len(e.queue) }

// QueueCapacity returns the job queue's bound.
func (e *Engine) QueueCapacity() int { return cap(e.queue) }

// BusyWorkers returns the number of workers currently executing a task.
func (e *Engine) BusyWorkers() float64 { return e.busy.Value() }

// Sessions returns the engine's stateful session manager — registered
// networks with live online-admission state, served beside the batch
// job pool. It stays usable after Close (sessions hold no goroutines),
// though a closing server will normally stop routing to it.
func (e *Engine) Sessions() *session.Manager { return e.sessions }

// Close drains the queue, stops the workers, and blocks until in-flight
// jobs finish. Subsequent Do calls return ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.queue)
	e.mu.Unlock()
	e.wg.Wait()
}

// Do submits a job and blocks until its result is available, the context
// is done, or the engine closes. Identical jobs (same kind, ε, and
// instance fingerprint) in flight are coalesced into one execution, and
// completed results are served from the cache unless NoCache is set.
// When the job queue is full, a job needing a fresh execution fails
// fast with an *OverloadError (errors.Is ErrOverloaded) instead of
// queueing unboundedly, unless Config.BlockOnFull restores blocking;
// cache hits and coalesced joins still succeed under overload.
//
// Cancellation first abandons only the wait: the execution keeps running
// for as long as any coalesced submitter still wants it (and its result
// is cached as usual). When the last waiter's context is done, the
// execution itself is cancelled — the solvers check their context each
// main-loop iteration — so an abandoned pathological solve releases its
// worker instead of occupying it to completion.
func (e *Engine) Do(ctx context.Context, job Job) (*Result, error) {
	s, err := job.validate()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	e.submitted.Inc()
	key := job.fingerprint(s)
	counted := false
	missed := false
	for {
		if !job.NoCache && e.cache != nil {
			if res, ok := e.cache.get(key); ok {
				e.hits.Inc()
				hit := *res
				hit.CacheHit = true
				return &hit, nil
			}
		}
		c, leader, cached := e.join(key, !job.NoCache)
		if cached != nil {
			e.hits.Inc()
			hit := *cached
			hit.CacheHit = true
			return &hit, nil
		}
		if !leader && !counted {
			e.coalesced.Inc()
			counted = true
		}
		if leader {
			// A cache-eligible job that has to execute is a cache miss
			// (coalesced waiters are neither hits nor misses — they never
			// consulted the cache for an answer of their own).
			if !job.NoCache && e.cache != nil && !missed {
				e.misses.Inc()
				missed = true
			}
			if err := e.enqueue(ctx, job, s, key, c); err != nil {
				e.leave(c)
				return nil, err
			}
		}
		select {
		case <-c.done:
			e.leave(c)
			if c.err != nil {
				// A context error here is the *execution's*, not ours: either
				// a leader abandoned before its task was queued, or every
				// earlier waiter left and the running solve was cancelled. We
				// still want an answer, so resubmit while our context is live
				// (the solvers only return their own context's error, so this
				// cannot mask a real solver failure).
				if isContextErr(c.err) && ctx.Err() == nil {
					continue
				}
				return nil, c.err
			}
			return c.res, nil
		case <-ctx.Done():
			e.leave(c)
			return nil, ctx.Err()
		}
	}
}

// leave unregisters a waiter from a call; the last one out cancels the
// execution's context, so a solve nobody is waiting for stops at its
// next iteration check instead of holding its worker. (After normal
// completion the cancel is a no-op that just releases the context.)
func (e *Engine) leave(c *call) {
	e.flightMu.Lock()
	c.waiters--
	if c.waiters == 0 {
		c.cancel()
	}
	e.flightMu.Unlock()
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// join returns the in-flight call for key, creating it (leader == true)
// if absent. wantCache marks the call cacheable on behalf of this
// submitter. Because tasks cache and retire under the same lock, the
// cache re-check here closes the window where a result lands in the
// cache between Do's lock-free check and the inflight lookup — a
// would-be leader takes the cached result instead of re-executing.
func (e *Engine) join(key string, wantCache bool) (c *call, leader bool, cached *Result) {
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	if c, ok := e.inflight[key]; ok {
		c.cacheable = c.cacheable || wantCache
		c.waiters++
		return c, false, nil
	}
	if wantCache && e.cache != nil {
		if res, ok := e.cache.get(key); ok {
			return nil, false, res
		}
	}
	c = &call{done: make(chan struct{}), cacheable: wantCache, waiters: 1}
	c.runCtx, c.cancel = context.WithCancel(context.Background())
	e.inflight[key] = c
	return c, true, nil
}

// enqueue hands the leader's execution to the worker pool. A full queue
// sheds the job with an *OverloadError (or, with Config.BlockOnFull,
// blocks until ctx is done). On failure the pending call is completed
// with the error so coalesced waiters do not hang.
func (e *Engine) enqueue(ctx context.Context, job Job, s solver.Solver, key string, c *call) error {
	task := func() {
		start := time.Now()
		res, err := e.run(c.runCtx, job, s)
		if err != nil {
			res = nil
			if isContextErr(err) {
				e.cancelled.Inc()
			} else {
				e.failures.Inc()
			}
		} else {
			res.Elapsed = time.Since(start)
			e.latency.Add(res.Elapsed.Seconds())
			e.latencySec.Observe(res.Elapsed.Seconds())
			e.completed.Inc()
		}
		// Cache and retire the call under one lock so no identical job can
		// slip between the two and re-execute a just-finished solve.
		e.flightMu.Lock()
		if err == nil && c.cacheable && e.cache != nil {
			e.cache.put(key, res)
		}
		delete(e.inflight, key)
		e.flightMu.Unlock()
		c.res, c.err = res, err
		close(c.done)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		err := ErrClosed
		e.abandon(key, c, err)
		return err
	}
	if e.cfg.BlockOnFull {
		select {
		case e.queue <- task:
			return nil
		case <-ctx.Done():
			err := ctx.Err()
			e.abandon(key, c, err)
			return err
		}
	}
	select {
	case e.queue <- task:
		return nil
	default:
		e.shed.Inc()
		err := &OverloadError{RetryAfter: e.retryAfter()}
		e.abandon(key, c, err)
		return err
	}
}

// retryAfter estimates when a queue slot should free up: the tasks
// ahead of a retry (current depth plus the one being shed) times the
// mean solve latency, spread across the worker pool, jittered ±50% so
// a shed burst does not come back as a synchronized retry storm. With
// no latency samples yet it falls back to a small constant.
func (e *Engine) retryAfter() time.Duration {
	lat := e.latency.Snapshot()
	mean := lat.Mean()
	if !(mean > 0) {
		mean = 0.05
	}
	est := mean * float64(len(e.queue)+1) / float64(e.cfg.Workers)
	est *= 0.5 + rand.Float64() // jitter in [0.5, 1.5)
	d := time.Duration(est * float64(time.Second))
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// abandon completes a never-enqueued leader call with err so coalesced
// waiters unblock.
func (e *Engine) abandon(key string, c *call, err error) {
	e.flightMu.Lock()
	delete(e.inflight, key)
	e.flightMu.Unlock()
	c.err = err
	close(c.done)
}

// run executes the job's algorithm under ctx (cancelled when every
// waiter has abandoned the job) by dispatching through the solver
// registry. Solvers use SolveWorkers goroutines internally and share the
// engine's scratch pool; everything else about the call matches the
// package-level entry points exactly, so results are interchangeable
// with direct calls.
func (e *Engine) run(ctx context.Context, job Job, s solver.Solver) (*Result, error) {
	out, err := s.Solve(ctx,
		solver.Input{UFP: job.UFP, Auction: job.Auction},
		solver.Params{
			Eps:           job.Eps,
			Seed:          job.Seed,
			MaxIterations: job.MaxIterations,
			Workers:       e.cfg.SolveWorkers,
			PathPool:      e.paths,
		})
	if err != nil {
		return nil, err
	}
	return &Result{
		Allocation:        out.Allocation,
		AuctionAllocation: out.AuctionAllocation,
		UFPOutcome:        out.UFPOutcome,
		AuctionOutcome:    out.AuctionOutcome,
	}, nil
}

// Snapshot is a point-in-time view of the engine's counters.
type Snapshot struct {
	Workers   int
	Submitted int64 // jobs accepted by Do
	Completed int64 // executions finished successfully
	CacheHits int64 // answers served from the result cache
	Coalesced int64 // submissions folded into an identical in-flight job
	Failures  int64 // executions that returned a non-cancellation error
	Cancelled int64 // executions stopped early because every waiter left
	Shed      int64 // jobs refused with ErrOverloaded on a full queue
	Uptime    time.Duration
	// Latency summarizes per-execution solve time in seconds over
	// successful executions (cache hits, coalesced waits, and failures
	// excluded).
	Latency stats.Summary
	// Sessions is the stateful session manager's counters (live count,
	// evictions, streamed operations).
	Sessions session.Stats
}

// JobsPerSec is the engine's lifetime successful-execution throughput.
func (s Snapshot) JobsPerSec() float64 {
	if s.Uptime <= 0 {
		return 0
	}
	return float64(s.Completed) / s.Uptime.Seconds()
}

// Snapshot returns current counter values.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{
		Workers:   e.cfg.Workers,
		Submitted: e.submitted.Load(),
		Completed: e.completed.Load(),
		CacheHits: e.hits.Load(),
		Coalesced: e.coalesced.Load(),
		Failures:  e.failures.Load(),
		Cancelled: e.cancelled.Load(),
		Shed:      e.shed.Load(),
		Uptime:    time.Since(e.start),
		Latency:   e.latency.Snapshot(),
		Sessions:  e.sessions.Stats(),
	}
}

// RegisterMetrics registers the engine's instrument families —
// ufp_engine_* job counters, cache hit/miss/size, queue depth and
// worker utilization gauges, and the solve latency histogram — into
// reg, and delegates to the session manager for the ufp_session_* and
// ufp_pathcache_* families. Call once per registry; counters are
// func-backed (read at scrape time), so registration costs the hot
// path nothing.
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	counter := func(name, help string, fn func() int64) {
		reg.NewCounterFamily(name, help).Func(fn)
	}
	gauge := func(name, help string, fn func() float64) {
		reg.NewGaugeFamily(name, help).GaugeFunc(fn)
	}
	counter("ufp_engine_jobs_submitted_total", "Jobs accepted by Do.", e.submitted.Load)
	counter("ufp_engine_jobs_completed_total", "Executions finished successfully.", e.completed.Load)
	counter("ufp_engine_jobs_failed_total", "Executions that returned a non-cancellation error.", e.failures.Load)
	counter("ufp_engine_jobs_cancelled_total", "Executions stopped early because every waiter left.", e.cancelled.Load)
	counter("ufp_engine_jobs_coalesced_total", "Submissions folded into an identical in-flight job.", e.coalesced.Load)
	counter("ufp_engine_jobs_shed_total", "Jobs refused with ErrOverloaded on a full queue.", e.shed.Load)
	counter("ufp_engine_cache_hits_total", "Answers served from the result cache.", e.hits.Load)
	counter("ufp_engine_cache_misses_total", "Cache-eligible jobs that had to execute.", e.misses.Load)
	gauge("ufp_engine_cache_entries", "Results currently held by the LRU cache.", func() float64 {
		if e.cache == nil {
			return 0
		}
		return float64(e.cache.len())
	})
	gauge("ufp_engine_queue_depth", "Tasks waiting in the job queue.", func() float64 {
		return float64(len(e.queue))
	})
	gauge("ufp_engine_queue_capacity", "Job queue capacity.", func() float64 {
		return float64(cap(e.queue))
	})
	gauge("ufp_engine_workers", "Worker goroutines.", func() float64 {
		return float64(e.cfg.Workers)
	})
	gauge("ufp_engine_workers_busy", "Workers currently executing a task.", e.busy.Value)
	gauge("ufp_engine_worker_utilization", "Busy fraction of the worker pool (0..1).", func() float64 {
		return e.busy.Value() / float64(e.cfg.Workers)
	})
	reg.NewHistogramFamily("ufp_engine_solve_duration_seconds",
		"Per-execution solve wall time (successful executions; cache hits and coalesced waits excluded).",
		metrics.DefLatencyBuckets).Observe(e.latencySec)
	e.sessions.RegisterMetrics(reg)
}
