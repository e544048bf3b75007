package shard

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"truthfulufp/internal/engine"
	"truthfulufp/internal/graph"
	"truthfulufp/internal/metrics"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/session"
	"truthfulufp/internal/stats"
)

// Config tunes a Router.
type Config struct {
	// Shards is the number of engine/session backends; 0 or 1 means a
	// single backend (the router degenerates to a pass-through and keeps
	// the single-engine /metrics exposition byte-compatible).
	Shards int
	// Engine is the per-backend engine configuration (each shard gets
	// its own worker pool, queue, result cache, and session manager
	// built from it). SessionIDPrefix is overridden per shard — see
	// IDPrefix.
	Engine engine.Config
	// Replicas is the virtual-node count per shard on the ring (0 =
	// DefaultReplicas).
	Replicas int
	// LoadFactor is the bounded-load factor c (<=1 = DefaultLoadFactor):
	// a job whose primary shard holds more than c times the average
	// in-flight load is diverted to the next shard on its arc.
	LoadFactor float64
	// IDPrefix is a node-level prefix prepended to every shard's session
	// ids. ufpserve's -route mode sets "p<i>." from the node's position
	// in the -peers list, so an id like "p1.s0-n3" names its owning node
	// (and shard within it) cluster-wide; in-process ids then look like
	// "s0-n3" (multi-shard) or "n3" (single shard, the legacy spelling).
	IDPrefix string
}

// backend is one engine/session pair behind the router.
type backend struct {
	index    int
	member   string // ring member key (the decimal shard index)
	prefix   string // session-id prefix identifying this shard
	eng      *engine.Engine
	inflight atomic.Int64 // jobs routed here and not yet returned
	routed   stats.Counter
	placed   stats.Counter // sessions placed here at registration
}

// Router fronts N engine/session backends behind the bounded-load
// consistent-hash ring: jobs route by instance fingerprint (identical
// jobs land on the same shard, keeping singleflight dedup and the
// result cache effective), session registrations place on the
// least-loaded arc owner, and subsequent session operations route by
// the shard prefix baked into the session id. Because every engine
// answer is a pure function of the job, routing never changes results
// — a catalog solved through a Router is byte-identical to the
// single-engine path. All methods are safe for concurrent use;
// membership is fixed at construction.
type Router struct {
	cfg      Config
	ring     *Ring
	backends []*backend
	byMember map[string]*backend
	seq      atomic.Uint64 // session-placement ring keys

	diverted  stats.Counter // jobs routed off their primary by bounded load
	misrouted stats.Counter // session ops whose id no local shard owns
}

// New builds a Router and starts its backends' worker pools.
func New(cfg Config) *Router {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	r := &Router{cfg: cfg, byMember: make(map[string]*backend, cfg.Shards)}
	members := make([]string, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		prefix := cfg.IDPrefix
		if cfg.Shards > 1 {
			prefix = fmt.Sprintf("%ss%d-", cfg.IDPrefix, i)
		}
		ecfg := cfg.Engine
		ecfg.SessionIDPrefix = prefix
		b := &backend{
			index:  i,
			member: strconv.Itoa(i),
			prefix: prefix,
			eng:    engine.New(ecfg),
		}
		r.backends = append(r.backends, b)
		r.byMember[b.member] = b
		members[i] = b.member
	}
	r.ring = NewRing(members, cfg.Replicas, cfg.LoadFactor)
	return r
}

// NumShards returns the backend count.
func (r *Router) NumShards() int { return len(r.backends) }

// Engine returns shard i's engine — the escape hatch for tests and for
// server paths (drain, statusz) that address one backend directly.
func (r *Router) Engine(i int) *engine.Engine { return r.backends[i].eng }

// Prefix returns shard i's session-id prefix.
func (r *Router) Prefix(i int) string { return r.backends[i].prefix }

// Close shuts the backends down, draining their queues and blocking
// until in-flight jobs finish.
func (r *Router) Close() {
	for _, b := range r.backends {
		b.eng.Close()
	}
}

// pick chooses the shard for a job key under the bounded-load rule,
// using live in-flight counts as the load signal.
func (r *Router) pick(key string) *backend {
	if len(r.backends) == 1 {
		return r.backends[0]
	}
	primary := r.ring.Lookup(key)
	m := r.ring.LookupBounded(key, func(member string) int {
		return int(r.byMember[member].inflight.Load())
	})
	if m != primary {
		r.diverted.Inc()
	}
	return r.byMember[m]
}

// Do routes the job to its shard by instance fingerprint and blocks on
// that shard's engine. Everything engine.Do promises — coalescing,
// caching, cancellation, fail-fast overload — holds per shard.
func (r *Router) Do(ctx context.Context, job engine.Job) (*engine.Result, error) {
	b := r.pick(job.Fingerprint())
	b.routed.Inc()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	return b.eng.Do(ctx, job)
}

// Register creates a session on the shard the ring assigns to the next
// placement key, bounded by live-session load so a burst of
// registrations spreads. The returned session's id carries the shard
// prefix, which is what routes every subsequent operation back here.
func (r *Router) Register(g *graph.Graph, eps float64) (*session.Session, error) {
	b := r.backends[0]
	if len(r.backends) > 1 {
		key := "session-" + strconv.FormatUint(r.seq.Add(1), 10)
		m := r.ring.LookupBounded(key, func(member string) int {
			return r.byMember[member].eng.Sessions().Len()
		})
		b = r.byMember[m]
	}
	s, err := b.eng.Sessions().Register(g, eps)
	if err == nil {
		b.placed.Inc()
	}
	return s, err
}

// Owner resolves a session id to the local shard whose prefix it
// carries (false when no local shard owns it — in route mode the
// server then forwards to the peer named by the node prefix).
func (r *Router) Owner(id string) (int, bool) {
	for _, b := range r.backends {
		if strings.HasPrefix(id, b.prefix) {
			return b.index, true
		}
	}
	return -1, false
}

// Session returns the live session under id from its owning shard. An
// id no local shard owns counts as misrouted (zero in a correctly
// configured cluster) and reports not-found.
func (r *Router) Session(id string) (*session.Session, bool) {
	i, ok := r.Owner(id)
	if !ok {
		r.misrouted.Inc()
		return nil, false
	}
	return r.backends[i].eng.Sessions().Get(id)
}

// CloseSession removes the session under id from its owning shard,
// reporting whether it was live.
func (r *Router) CloseSession(id string) bool {
	i, ok := r.Owner(id)
	if !ok {
		r.misrouted.Inc()
		return false
	}
	return r.backends[i].eng.Sessions().Close(id)
}

// ShardSnapshot is one backend's view inside a router Snapshot.
type ShardSnapshot struct {
	Shard          int
	Prefix         string
	Routed         int64
	SessionsPlaced int64
	Inflight       int64
	Engine         engine.Snapshot
}

// Snapshot is a point-in-time view of the cluster: the router's own
// counters, per-shard detail, and sums of the per-engine counters
// (latency summaries are per shard only — quantiles don't merge).
type Snapshot struct {
	Shards    int
	Diverted  int64
	Misrouted int64

	Submitted     int64
	Completed     int64
	CacheHits     int64
	Coalesced     int64
	Failures      int64
	Cancelled     int64
	Shed          int64
	Workers       int
	BusyWorkers   float64
	QueueDepth    int
	QueueCapacity int
	SessionsLive  int
	// Uptime is the oldest backend's (they start together in practice).
	Uptime time.Duration
	// Sessions sums the per-shard session-manager counters.
	Sessions session.Stats

	PerShard []ShardSnapshot
}

// Snapshot returns current counter values across all shards.
func (r *Router) Snapshot() Snapshot {
	s := Snapshot{
		Shards:    len(r.backends),
		Diverted:  r.diverted.Load(),
		Misrouted: r.misrouted.Load(),
	}
	for _, b := range r.backends {
		es := b.eng.Snapshot()
		s.PerShard = append(s.PerShard, ShardSnapshot{
			Shard:          b.index,
			Prefix:         b.prefix,
			Routed:         b.routed.Load(),
			SessionsPlaced: b.placed.Load(),
			Inflight:       b.inflight.Load(),
			Engine:         es,
		})
		s.Submitted += es.Submitted
		s.Completed += es.Completed
		s.CacheHits += es.CacheHits
		s.Coalesced += es.Coalesced
		s.Failures += es.Failures
		s.Cancelled += es.Cancelled
		s.Shed += es.Shed
		s.Workers += es.Workers
		s.BusyWorkers += b.eng.BusyWorkers()
		s.QueueDepth += b.eng.QueueDepth()
		s.QueueCapacity += b.eng.QueueCapacity()
		s.SessionsLive += es.Sessions.Live
		if es.Uptime > s.Uptime {
			s.Uptime = es.Uptime
		}
		s.Sessions.Live += es.Sessions.Live
		s.Sessions.Created += es.Sessions.Created
		s.Sessions.EvictedLRU += es.Sessions.EvictedLRU
		s.Sessions.EvictedTTL += es.Sessions.EvictedTTL
		s.Sessions.Closed += es.Sessions.Closed
		s.Sessions.Admits += es.Sessions.Admits
		s.Sessions.Rejects += es.Sessions.Rejects
		s.Sessions.Quotes += es.Sessions.Quotes
		s.Sessions.Releases += es.Sessions.Releases
	}
	return s
}

// JobsPerSec is the cluster's lifetime successful-execution
// throughput.
func (s Snapshot) JobsPerSec() float64 {
	if s.Uptime <= 0 {
		return 0
	}
	return float64(s.Completed) / s.Uptime.Seconds()
}

// RegisterMetrics registers the cluster's instrument families into
// reg: the per-shard ufp_shard_* families (labeled by shard index)
// plus the ufp_engine_*, ufp_session_*, and ufp_pathcache_* families.
// With one backend the engine families delegate to
// engine.RegisterMetrics, so a single-shard server's exposition is
// byte-compatible with the pre-router one; with several they are
// cluster-wide sums, and the latency histograms become per-shard
// labeled series. Call once per registry.
func (r *Router) RegisterMetrics(reg *metrics.Registry) {
	routedF := reg.NewCounterFamily("ufp_shard_routed_total",
		"Jobs routed to each shard by the consistent-hash router.", "shard")
	placedF := reg.NewCounterFamily("ufp_shard_sessions_placed_total",
		"Sessions placed on each shard at registration.", "shard")
	shedF := reg.NewCounterFamily("ufp_shard_shed_total",
		"Jobs each shard refused with ErrOverloaded on a full queue.", "shard")
	inflF := reg.NewGaugeFamily("ufp_shard_inflight",
		"Jobs currently routed to each shard and not yet returned.", "shard")
	depthF := reg.NewGaugeFamily("ufp_shard_queue_depth",
		"Tasks waiting in each shard's job queue.", "shard")
	utilF := reg.NewGaugeFamily("ufp_shard_utilization",
		"Busy fraction of each shard's worker pool (0..1).", "shard")
	liveF := reg.NewGaugeFamily("ufp_shard_sessions_live",
		"Sessions live on each shard.", "shard")
	for _, b := range r.backends {
		b := b
		l := b.member
		routedF.Func(b.routed.Load, l)
		placedF.Func(b.placed.Load, l)
		shedF.Func(func() int64 { return b.eng.Counters().Shed }, l)
		inflF.GaugeFunc(func() float64 { return float64(b.inflight.Load()) }, l)
		depthF.GaugeFunc(func() float64 { return float64(b.eng.QueueDepth()) }, l)
		utilF.GaugeFunc(func() float64 { return b.eng.BusyWorkers() / float64(b.eng.Workers()) }, l)
		liveF.GaugeFunc(func() float64 { return float64(b.eng.Sessions().Len()) }, l)
	}
	reg.NewGaugeFamily("ufp_shard_count", "Engine/session backends behind the router.").
		GaugeFunc(func() float64 { return float64(len(r.backends)) })
	reg.NewCounterFamily("ufp_shard_diverted_total",
		"Jobs routed off their primary shard by the bounded-load rule.").Func(r.diverted.Load)
	reg.NewCounterFamily("ufp_shard_misrouted_total",
		"Session operations whose id no local shard owns.").Func(r.misrouted.Load)

	if len(r.backends) == 1 {
		r.backends[0].eng.RegisterMetrics(reg)
		return
	}
	r.registerAggregates(reg)
}

// registerAggregates re-derives the single-engine family set as
// cluster-wide sums (same names and help, so dashboards survive a
// -shards change), with the latency histograms as per-shard labeled
// children — bucket counts are additive in PromQL, quantile summaries
// are not.
func (r *Router) registerAggregates(reg *metrics.Registry) {
	sumI := func(f func(*backend) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, b := range r.backends {
				t += f(b)
			}
			return t
		}
	}
	sumF := func(f func(*backend) float64) func() float64 {
		return func() float64 {
			var t float64
			for _, b := range r.backends {
				t += f(b)
			}
			return t
		}
	}
	counter := func(name, help string, f func(*backend) int64) {
		reg.NewCounterFamily(name, help).Func(sumI(f))
	}
	gauge := func(name, help string, f func(*backend) float64) {
		reg.NewGaugeFamily(name, help).GaugeFunc(sumF(f))
	}

	counter("ufp_engine_jobs_submitted_total", "Jobs accepted by Do.",
		func(b *backend) int64 { return b.eng.Counters().Submitted })
	counter("ufp_engine_jobs_completed_total", "Executions finished successfully.",
		func(b *backend) int64 { return b.eng.Counters().Completed })
	counter("ufp_engine_jobs_failed_total", "Executions that returned a non-cancellation error.",
		func(b *backend) int64 { return b.eng.Counters().Failures })
	counter("ufp_engine_jobs_cancelled_total", "Executions stopped early because every waiter left.",
		func(b *backend) int64 { return b.eng.Counters().Cancelled })
	counter("ufp_engine_jobs_coalesced_total", "Submissions folded into an identical in-flight job.",
		func(b *backend) int64 { return b.eng.Counters().Coalesced })
	counter("ufp_engine_jobs_shed_total", "Jobs refused with ErrOverloaded on a full queue.",
		func(b *backend) int64 { return b.eng.Counters().Shed })
	counter("ufp_engine_cache_hits_total", "Answers served from the result cache.",
		func(b *backend) int64 { return b.eng.Counters().CacheHits })
	counter("ufp_engine_cache_misses_total", "Cache-eligible jobs that had to execute.",
		func(b *backend) int64 { return b.eng.Counters().CacheMisses })
	gauge("ufp_engine_cache_entries", "Results currently held by the LRU cache.",
		func(b *backend) float64 { return float64(b.eng.CacheEntries()) })
	gauge("ufp_engine_queue_depth", "Tasks waiting in the job queue.",
		func(b *backend) float64 { return float64(b.eng.QueueDepth()) })
	gauge("ufp_engine_queue_capacity", "Job queue capacity.",
		func(b *backend) float64 { return float64(b.eng.QueueCapacity()) })
	gauge("ufp_engine_workers", "Worker goroutines.",
		func(b *backend) float64 { return float64(b.eng.Workers()) })
	gauge("ufp_engine_workers_busy", "Workers currently executing a task.",
		func(b *backend) float64 { return b.eng.BusyWorkers() })
	reg.NewGaugeFamily("ufp_engine_worker_utilization", "Busy fraction of the worker pool (0..1).").
		GaugeFunc(func() float64 {
			var busy, workers float64
			for _, b := range r.backends {
				busy += b.eng.BusyWorkers()
				workers += float64(b.eng.Workers())
			}
			if workers == 0 {
				return 0
			}
			return busy / workers
		})
	solveF := reg.NewHistogramFamily("ufp_engine_solve_duration_seconds",
		"Per-execution solve wall time (successful executions; cache hits and coalesced waits excluded).",
		metrics.DefLatencyBuckets, "shard")
	for _, b := range r.backends {
		solveF.Observe(b.eng.LatencyHistogram(), b.member)
	}

	gauge("ufp_session_live", "Sessions currently registered.",
		func(b *backend) float64 { return float64(b.eng.Sessions().Len()) })
	counter("ufp_session_created_total", "Sessions ever registered.",
		func(b *backend) int64 { return b.eng.Sessions().Stats().Created })
	evictions := reg.NewCounterFamily("ufp_session_evictions_total",
		"Sessions evicted, split by reason (lru = capacity, ttl = idleness).", "reason")
	evictions.Func(sumI(func(b *backend) int64 { return b.eng.Sessions().Stats().EvictedLRU }), "lru")
	evictions.Func(sumI(func(b *backend) int64 { return b.eng.Sessions().Stats().EvictedTTL }), "ttl")
	counter("ufp_session_closed_total", "Sessions closed explicitly.",
		func(b *backend) int64 { return b.eng.Sessions().Stats().Closed })
	counter("ufp_session_admits_total", "Streamed requests admitted.",
		func(b *backend) int64 { return b.eng.Sessions().Stats().Admits })
	counter("ufp_session_rejects_total", "Streamed requests rejected.",
		func(b *backend) int64 { return b.eng.Sessions().Stats().Rejects })
	counter("ufp_session_quotes_total", "Price quotes served.",
		func(b *backend) int64 { return b.eng.Sessions().Stats().Quotes })
	counter("ufp_session_releases_total", "Admissions released.",
		func(b *backend) int64 { return b.eng.Sessions().Stats().Releases })
	admitF := reg.NewHistogramFamily("ufp_session_admit_duration_seconds",
		"Per-admit solver time (one observation per Admit call, admitted or not).",
		metrics.DefLatencyBuckets, "shard")
	quoteF := reg.NewHistogramFamily("ufp_session_quote_duration_seconds",
		"Per-quote solver time.",
		metrics.DefLatencyBuckets, "shard")
	for _, b := range r.backends {
		admitF.Observe(b.eng.Sessions().AdmitLatencyHistogram(), b.member)
		quoteF.Observe(b.eng.Sessions().QuoteLatencyHistogram(), b.member)
	}

	pc := func() pathfind.CacheStats {
		var agg pathfind.CacheStats
		for _, b := range r.backends {
			agg.Add(b.eng.Sessions().PathCacheStats())
		}
		return agg
	}
	pcGauge := func(name, help string, f func(pathfind.CacheStats) float64) {
		reg.NewGaugeFamily(name, help).GaugeFunc(func() float64 { return f(pc()) })
	}
	pcGauge("ufp_pathcache_refreshes", "Refresh calls summed over live sessions' path caches.",
		func(s pathfind.CacheStats) float64 { return float64(s.Refreshes) })
	pcGauge("ufp_pathcache_tree_recomputed", "Structures rebuilt from scratch (live sessions).",
		func(s pathfind.CacheStats) float64 { return float64(s.Recomputed) })
	pcGauge("ufp_pathcache_tree_reused", "Structures served clean from cache (live sessions).",
		func(s pathfind.CacheStats) float64 { return float64(s.Reused) })
	pcGauge("ufp_pathcache_path_hits", "PathTo answers served from a fresh tree or clean cached path (live sessions).",
		func(s pathfind.CacheStats) float64 { return float64(s.PathToHits) })
	pcGauge("ufp_pathcache_path_misses", "PathTo answers that ran an early-exit search (live sessions).",
		func(s pathfind.CacheStats) float64 { return float64(s.PathToMisses) })
	pcGauge("ufp_pathcache_dirty_ratio", "Fraction of demanded structures recomputed (live sessions, 0..1).",
		func(s pathfind.CacheStats) float64 { return s.DirtyRatio() })
	pcGauge("ufp_pathcache_oracle_searches", "PathTo misses answered by the ALT/bidirectional oracle (live sessions).",
		func(s pathfind.CacheStats) float64 { return float64(s.AltSearches) })
	pcGauge("ufp_pathcache_oracle_prune_ratio", "Fraction of the full-tree vertex budget the oracle's searches skipped (live sessions, 0..1).",
		func(s pathfind.CacheStats) float64 { return s.PruneRatio() })
	pcGauge("ufp_pathcache_bidi_probes", "Bidirectional probes run (live sessions).",
		func(s pathfind.CacheStats) float64 { return float64(s.BidiProbes) })
	pcGauge("ufp_pathcache_bidi_meets", "Bidirectional probes whose frontiers bridged (live sessions).",
		func(s pathfind.CacheStats) float64 { return float64(s.BidiMeets) })
	policy := reg.NewGaugeFamily("ufp_pathcache_policy_decisions",
		"Adaptive refresh-policy decisions, split by chosen serving mode (live sessions).", "mode")
	policy.GaugeFunc(func() float64 { return float64(pc().PolicyTree) }, "tree")
	policy.GaugeFunc(func() float64 { return float64(pc().PolicySingle) }, "single")
	pcGauge("ufp_pathcache_landmark_violations", "Landmark lower-bound violations caught by the oracle (live sessions; each triggers a rebuild, or disables the tables past the budget).",
		func(s pathfind.CacheStats) float64 { return float64(s.LandmarkViolations) })
	counter("ufp_pathcache_landmark_rebuilds_total",
		"Landmark table rebuilds triggered by a lower-bound violation (monotone; survives session eviction; 0 under monotone prices).",
		func(b *backend) int64 { return b.eng.Sessions().LandmarkRebuilds() })
	rebuildF := reg.NewHistogramFamily("ufp_pathcache_landmark_rebuild_duration_seconds",
		"Wall time of each landmark table rebuild (2k Dijkstras plus minimax tables when enabled).",
		metrics.DefLatencyBuckets, "shard")
	for _, b := range r.backends {
		rebuildF.Observe(b.eng.Sessions().LandmarkRebuildHistogram(), b.member)
	}
	// The landmark registry is process-wide — every shard's sessions and
	// the mechanism probes share pathfind.SharedLandmarks — so its
	// counters are read directly, NOT summed per shard (a sum would
	// multiply-count the one registry by the shard count).
	registry := reg.NewCounterFamily("ufp_pathcache_landmark_registry_lookups_total",
		"Shared landmark registry lookups, split by result (process-wide: one registry serves every shard, session, and mechanism probe).", "result")
	registry.Func(func() int64 { h, _ := pathfind.SharedLandmarks.Stats(); return h }, "hit")
	registry.Func(func() int64 { _, m := pathfind.SharedLandmarks.Stats(); return m }, "miss")
}
