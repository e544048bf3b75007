// Package session is the stateful serving layer for the paper's online
// admission setting: a Manager of long-lived Sessions, each one a
// registered network (frozen CSR graph) with live solver state — the
// exponential dual prices, the residual flow ledger, and a warm
// dirty-source path cache (core.AdmissionState). A client registers a
// topology once and then streams admit / quote / release calls against
// it; each call costs one single-target shortest-path query, usually
// served incrementally, instead of the full solve a stateless
// per-request API pays.
//
// Sessions are evicted least-recently-used beyond Config.MaxSessions
// and lazily expired after Config.TTL of idleness (swept from the LRU's
// cold end on every Manager entry, so expiry needs no background
// goroutine). An evicted or explicitly closed session answers every
// subsequent call with ErrSessionClosed; an operation already holding
// the session when eviction strikes completes normally — eviction is a
// resource-reclaim signal, not a linearization point.
package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"truthfulufp/internal/core"
	"truthfulufp/internal/graph"
	"truthfulufp/internal/lru"
	"truthfulufp/internal/metrics"
	"truthfulufp/internal/pathfind"
	"truthfulufp/internal/stats"
)

// ErrSessionClosed is returned by session operations after the session
// was closed or evicted.
var ErrSessionClosed = errors.New("session: closed")

// DefaultMaxSessions is the live-session cap when Config.MaxSessions is
// zero.
const DefaultMaxSessions = 64

// Config tunes a Manager.
type Config struct {
	// MaxSessions bounds live sessions (LRU eviction beyond it). 0 means
	// DefaultMaxSessions; negative means unbounded.
	MaxSessions int
	// TTL expires sessions idle longer than this (0 = never). Expiry is
	// lazy: expired sessions are reclaimed on the next Manager call.
	TTL time.Duration
	// PathPool, if non-nil, supplies the Dijkstra scratch buffers every
	// session's path cache draws from (the engine passes its per-process
	// pool here); nil uses one private pool shared by the manager's
	// sessions.
	PathPool *pathfind.Pool
	// IDPrefix is prepended to generated session ids ("n1", "n2", ...).
	// The shard router gives each backend a distinct prefix ("s0-",
	// "s1-", ...) so a session id names its owning shard and cluster
	// peers can resolve misrouted calls without a directory service.
	IDPrefix string
}

// Stats is a point-in-time view of a Manager's counters.
type Stats struct {
	// Live is the number of sessions currently registered.
	Live int `json:"live"`
	// Created counts sessions ever registered.
	Created int64 `json:"created"`
	// EvictedLRU counts sessions evicted for capacity.
	EvictedLRU int64 `json:"evictedLru"`
	// EvictedTTL counts sessions expired for idleness.
	EvictedTTL int64 `json:"evictedTtl"`
	// Closed counts sessions closed explicitly.
	Closed int64 `json:"closed"`
	// Admits / Rejects / Quotes / Releases count streamed operations
	// across all sessions, live and gone.
	Admits   int64 `json:"admits"`
	Rejects  int64 `json:"rejects"`
	Quotes   int64 `json:"quotes"`
	Releases int64 `json:"releases"`
}

// Manager owns the live sessions: registration, lookup, LRU/TTL
// eviction, and fleet-wide counters. Safe for concurrent use.
type Manager struct {
	cfg  Config
	pool *pathfind.Pool

	mu       sync.Mutex
	sessions *lru.Cache[string, *Session]
	nextID   uint64

	created    stats.Counter
	evictedLRU stats.Counter
	evictedTTL stats.Counter
	closed     stats.Counter
	admits     stats.Counter
	rejects    stats.Counter
	quotes     stats.Counter
	releases   stats.Counter

	// admitLatency / quoteLatency bucket the per-call solver time of
	// Admit and Quote across all sessions — the paper's online setting
	// makes per-admit latency the product metric, so it is always
	// measured (one histogram observation per call) and adopted into a
	// registry by RegisterMetrics.
	admitLatency *metrics.Histogram
	quoteLatency *metrics.Histogram
}

// NewManager builds a Manager.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	pool := cfg.PathPool
	if pool == nil {
		pool = pathfind.NewPool()
	}
	m := &Manager{
		cfg:          cfg,
		pool:         pool,
		admitLatency: metrics.NewHistogram(metrics.DefLatencyBuckets),
		quoteLatency: metrics.NewHistogram(metrics.DefLatencyBuckets),
	}
	m.sessions = lru.New(cfg.MaxSessions, func(_ string, s *Session) {
		s.markClosed()
	})
	return m
}

// Register creates a session for a network: the graph is validated and
// frozen, the solver state initialized (prices at 1/c_e, empty ledger),
// and the session stored under a fresh id. Registering may LRU-evict
// the coldest session when the manager is at capacity. The graph is
// owned by the session afterwards and must not be mutated.
func (m *Manager) Register(g *graph.Graph, eps float64) (*Session, error) {
	st, err := core.NewAdmissionState(g, eps, &core.Options{
		PathPool: m.pool,
		// Auto-built landmark tables come from the process-wide registry,
		// so shards and sessions serving the same topology share one set.
		LandmarkRegistry: pathfind.SharedLandmarks,
	})
	if err != nil {
		return nil, err
	}
	now := time.Now()
	s := &Session{
		mgr:     m,
		st:      st,
		eps:     eps,
		created: now,
	}
	s.lastUsed.Store(now.UnixNano())
	m.mu.Lock()
	m.sweepLocked(now)
	m.nextID++
	s.id = fmt.Sprintf("%sn%d", m.cfg.IDPrefix, m.nextID)
	m.evictedLRU.Add(int64(m.sessions.Put(s.id, s)))
	m.mu.Unlock()
	m.created.Inc()
	return s, nil
}

// Get returns the live session under id, marking it most recently used.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(time.Now())
	s, ok := m.sessions.Get(id)
	if ok {
		s.touch()
	}
	return s, ok
}

// Close removes the session under id, reporting whether it was live.
// Its state is dropped; the capacity it held is not returned anywhere —
// the network is simply gone.
func (m *Manager) Close(id string) bool {
	m.mu.Lock()
	ok := m.sessions.Remove(id)
	m.mu.Unlock()
	if ok {
		m.closed.Inc()
	}
	return ok
}

// Len returns the number of live sessions (after sweeping expired
// ones).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(time.Now())
	return m.sessions.Len()
}

// Stats returns current counter values.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	m.sweepLocked(time.Now())
	live := m.sessions.Len()
	m.mu.Unlock()
	return Stats{
		Live:       live,
		Created:    m.created.Load(),
		EvictedLRU: m.evictedLRU.Load(),
		EvictedTTL: m.evictedTTL.Load(),
		Closed:     m.closed.Load(),
		Admits:     m.admits.Load(),
		Rejects:    m.rejects.Load(),
		Quotes:     m.quotes.Load(),
		Releases:   m.releases.Load(),
	}
}

// PathCacheStats sums the warm path caches' observer counters over the
// currently live sessions: the fleet-wide dirty-source picture. Values
// shrink when sessions are evicted (the counters of a gone session are
// gone with it), so /metrics surfaces them as gauges.
func (m *Manager) PathCacheStats() pathfind.CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var agg pathfind.CacheStats
	m.sessions.Each(func(_ string, s *Session) bool {
		// m.mu before s.mu is the manager's lock order: session operations
		// under s.mu only touch the manager's atomic counters, never m.mu.
		s.mu.Lock()
		cs := s.st.CacheStats()
		s.mu.Unlock()
		agg.Add(cs)
		return true
	})
	return agg
}

// RegisterMetrics registers the manager's instrument families — the
// ufp_session_* lifecycle and operation counters, the admit/quote
// latency histograms, and the ufp_pathcache_* gauges aggregated over
// live sessions — into reg. Call once per registry; the scalar
// families are func-backed and read at scrape time.
func (m *Manager) RegisterMetrics(reg *metrics.Registry) {
	counter := func(name, help string, fn func() int64) {
		reg.NewCounterFamily(name, help).Func(fn)
	}
	reg.NewGaugeFamily("ufp_session_live", "Sessions currently registered.").GaugeFunc(func() float64 {
		return float64(m.Len())
	})
	counter("ufp_session_created_total", "Sessions ever registered.", m.created.Load)
	evictions := reg.NewCounterFamily("ufp_session_evictions_total",
		"Sessions evicted, split by reason (lru = capacity, ttl = idleness).", "reason")
	evictions.Func(m.evictedLRU.Load, "lru")
	evictions.Func(m.evictedTTL.Load, "ttl")
	counter("ufp_session_closed_total", "Sessions closed explicitly.", m.closed.Load)
	counter("ufp_session_admits_total", "Streamed requests admitted.", m.admits.Load)
	counter("ufp_session_rejects_total", "Streamed requests rejected.", m.rejects.Load)
	counter("ufp_session_quotes_total", "Price quotes served.", m.quotes.Load)
	counter("ufp_session_releases_total", "Admissions released.", m.releases.Load)
	reg.NewHistogramFamily("ufp_session_admit_duration_seconds",
		"Per-admit solver time (one observation per Admit call, admitted or not).",
		metrics.DefLatencyBuckets).Observe(m.admitLatency)
	reg.NewHistogramFamily("ufp_session_quote_duration_seconds",
		"Per-quote solver time.",
		metrics.DefLatencyBuckets).Observe(m.quoteLatency)
	pcGauge := func(name, help string, fn func(pathfind.CacheStats) float64) {
		reg.NewGaugeFamily(name, help).GaugeFunc(func() float64 {
			return fn(m.PathCacheStats())
		})
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
	pcGauge("ufp_pathcache_oracle_searches", "PathTo misses answered by the ALT landmark oracle (live sessions).",
		func(s pathfind.CacheStats) float64 { return float64(s.AltSearches) })
	pcGauge("ufp_pathcache_oracle_prune_ratio", "Fraction of the full-tree vertex budget the oracle's searches skipped (live sessions, 0..1).",
		func(s pathfind.CacheStats) float64 { return s.PruneRatio() })
	policy := reg.NewGaugeFamily("ufp_pathcache_policy_decisions",
		"Adaptive refresh-policy decisions, split by chosen serving mode (live sessions).", "mode")
	policy.GaugeFunc(func() float64 { return float64(m.PathCacheStats().PolicyTree) }, "tree")
	policy.GaugeFunc(func() float64 { return float64(m.PathCacheStats().PolicySingle) }, "single")
	pcGauge("ufp_pathcache_landmark_violations", "Landmark lower-bound violations caught by the oracle (live sessions; 0 under monotone prices; each disables its session's tables).",
		func(s pathfind.CacheStats) float64 { return float64(s.LandmarkViolations) })
	registry := reg.NewCounterFamily("ufp_pathcache_landmark_registry_lookups_total",
		"Shared landmark registry lookups, split by result (process-wide: one registry serves every shard, session, and mechanism probe).", "result")
	registry.Func(func() int64 { h, _ := pathfind.SharedLandmarks.Stats(); return h }, "hit")
	registry.Func(func() int64 { _, mi := pathfind.SharedLandmarks.Stats(); return mi }, "miss")
}

// AdmitLatencyHistogram exposes the manager's per-admit latency
// histogram for aggregation layers (the shard router labels one per
// shard) that cannot reuse RegisterMetrics' family names in the same
// registry.
func (m *Manager) AdmitLatencyHistogram() *metrics.Histogram { return m.admitLatency }

// QuoteLatencyHistogram is AdmitLatencyHistogram for Quote calls.
func (m *Manager) QuoteLatencyHistogram() *metrics.Histogram { return m.quoteLatency }

// sweepLocked expires idle sessions from the LRU's cold end. Recency
// order and last-use order coincide (every path that touches a session
// also touches its recency), so the sweep stops at the first live
// session. Caller holds m.mu.
func (m *Manager) sweepLocked(now time.Time) {
	if m.cfg.TTL <= 0 {
		return
	}
	cutoff := now.Add(-m.cfg.TTL).UnixNano()
	for {
		id, s, ok := m.sessions.Oldest()
		if !ok || s.lastUsed.Load() > cutoff {
			return
		}
		m.sessions.Remove(id)
		m.evictedTTL.Inc()
	}
}

// Session is one registered network's live solver state. Operations
// are serialized by the session's own lock, so concurrent admits on
// one session are safe and observe a total order; distinct sessions
// proceed in parallel.
type Session struct {
	id      string
	mgr     *Manager
	eps     float64
	created time.Time

	// lastUsed is the last operation's time (unix nanos), read by the
	// manager's TTL sweep without taking the session lock.
	lastUsed atomic.Int64
	// closedFlag is set by eviction/close, possibly while an operation
	// is in flight (see the package comment on eviction semantics).
	closedFlag atomic.Bool

	mu       sync.Mutex
	st       *core.AdmissionState
	admits   int64
	rejects  int64
	releases int64
}

// ID returns the session's manager-assigned id.
func (s *Session) ID() string { return s.id }

// Eps returns the accuracy parameter the session was registered with.
func (s *Session) Eps() float64 { return s.eps }

func (s *Session) markClosed() { s.closedFlag.Store(true) }

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// Admit streams one online request into the session (see
// core.AdmissionState.Admit).
func (s *Session) Admit(r core.Request) (core.Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return core.Decision{}, ErrSessionClosed
	}
	s.touch()
	start := time.Now()
	d, err := s.st.Admit(r)
	s.mgr.admitLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		return d, err
	}
	if d.Admitted {
		s.admits++
		s.mgr.admits.Inc()
	} else {
		s.rejects++
		s.mgr.rejects.Inc()
	}
	return d, nil
}

// Quote prices a request without admitting it (see
// core.AdmissionState.Quote).
func (s *Session) Quote(r core.Request) (core.Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return core.Decision{}, ErrSessionClosed
	}
	s.touch()
	start := time.Now()
	d, err := s.st.Quote(r)
	s.mgr.quoteLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		return d, err
	}
	s.mgr.quotes.Inc()
	return d, nil
}

// Release frees a prior admission's capacity (see
// core.AdmissionState.Release).
func (s *Session) Release(id int64) (*core.AdmittedRequest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return nil, ErrSessionClosed
	}
	s.touch()
	a, err := s.st.Release(id)
	if err != nil {
		return nil, err
	}
	s.releases++
	s.mgr.releases.Inc()
	return a, nil
}

// Ledger returns the session's live admissions in ascending ID order.
// The entries are snapshots of shared state; treat them as read-only.
func (s *Session) Ledger() ([]*core.AdmittedRequest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return nil, ErrSessionClosed
	}
	return s.st.Ledger(), nil
}

// Info is a point-in-time view of one session.
type Info struct {
	ID       string  `json:"id"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	Directed bool    `json:"directed"`
	Eps      float64 `json:"eps"`
	B        float64 `json:"b"`
	Admitted int     `json:"admitted"` // live ledger size
	Value    float64 `json:"value"`    // Σ values of live admissions
	DualSum  float64 `json:"dualSum"`  // saturation gauge Σ c_e·y_e
	Admits   int64   `json:"admits"`   // lifetime admissions
	Rejects  int64   `json:"rejects"`
	Releases int64   `json:"releases"`
	// PathRecomputed / PathReused are the warm path cache's counters:
	// reused/(reused+recomputed) is the fraction of admissions served
	// without a fresh shortest-path search.
	PathRecomputed int64 `json:"pathRecomputed"`
	PathReused     int64 `json:"pathReused"`
	// OracleSearches / OraclePruneRatio profile the cache's next-gen
	// single-target oracle: searches it answered, and the fraction of
	// the full-tree vertex budget its pruning skipped. PolicyTree /
	// PolicySingle count the adaptive refresh policy's decisions.
	OracleSearches   int64     `json:"oracleSearches"`
	OraclePruneRatio float64   `json:"oraclePruneRatio"`
	PolicyTree       int64     `json:"policyTree"`
	PolicySingle     int64     `json:"policySingle"`
	Created          time.Time `json:"created"`
	LastUsed         time.Time `json:"lastUsed"`
}

// Info returns the session's current view.
func (s *Session) Info() (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closedFlag.Load() {
		return Info{}, ErrSessionClosed
	}
	g := s.st.Graph()
	rec, reu := s.st.PathStats()
	cs := s.st.CacheStats()
	return Info{
		ID:               s.id,
		Vertices:         g.NumVertices(),
		Edges:            g.NumEdges(),
		Directed:         g.Directed(),
		Eps:              s.eps,
		B:                g.MinCapacity(),
		Admitted:         s.st.NumAdmitted(),
		Value:            s.st.Value(),
		DualSum:          s.st.DualSum(),
		Admits:           s.admits,
		Rejects:          s.rejects,
		Releases:         s.releases,
		PathRecomputed:   rec,
		PathReused:       reu,
		OracleSearches:   cs.AltSearches,
		OraclePruneRatio: cs.PruneRatio(),
		PolicyTree:       cs.PolicyTree,
		PolicySingle:     cs.PolicySingle,
		Created:          s.created,
		LastUsed:         time.Unix(0, s.lastUsed.Load()),
	}, nil
}
