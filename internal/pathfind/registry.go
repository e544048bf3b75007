package pathfind

import (
	"math"
	"sync"
	"sync/atomic"

	"truthfulufp/internal/graph"
)

// LandmarkRegistry is a concurrency-safe, process-wide cache of
// Landmarks keyed by a fingerprint of the frozen CSR topology and the
// build-time weight snapshot. It exists because a sharded deployment
// multiplies identical landmark builds: N engine shards behind a
// router each register the same popular topology, every mechanism
// bisection probe spins up a per-instance context, and each would pay
// 2k Dijkstras for tables that are byte-identical across all of them.
// The registry hands out one immutable table set per (topology, weight
// snapshot, table kinds) — sessions on different *graph.Graph values
// that are structurally identical share it through a cheap rebind of
// the CSR pointer.
//
// A fingerprint hit is never trusted on its own: the candidate's
// topology slices and lower-bound weights are verified element-wise
// against the requested graph before it is returned, so a hash
// collision costs one O(edges) comparison, never a wrong table.
// Entries are kept in most-recently-used order and the least recently
// used is evicted past the capacity.
//
// Violation rebuilds (Incremental's recovery path when a weight falls
// below its recorded bound) bypass the registry on purpose: a rebuilt
// set is bound to one session's private price trajectory, which no
// other session will ever fingerprint-match, so caching it would only
// churn the LRU.
type LandmarkRegistry struct {
	mu      sync.Mutex
	entries []*registryEntry // most-recently-used first
	cap     int
	hits    atomic.Int64
	misses  atomic.Int64
}

// registryEntry pairs a table set with its fingerprint and build
// parameters.
type registryEntry struct {
	fp         uint64
	k          int
	bottleneck bool
	lm         *Landmarks
}

// DefaultRegistryCapacity bounds the shared registry: comfortably more
// distinct live (topology, weight-snapshot) pairs than a node serves
// at once, while capping the tables' memory at a few dozen graphs.
const DefaultRegistryCapacity = 64

// SharedLandmarks is the process-wide default registry, shared by
// every engine shard's session manager and the mechanism's bisection
// contexts.
var SharedLandmarks = NewLandmarkRegistry(DefaultRegistryCapacity)

// NewLandmarkRegistry returns an empty registry holding at most
// capacity table sets (<= 0 means DefaultRegistryCapacity).
func NewLandmarkRegistry(capacity int) *LandmarkRegistry {
	if capacity <= 0 {
		capacity = DefaultRegistryCapacity
	}
	return &LandmarkRegistry{cap: capacity}
}

// Get returns the landmark tables for g built with k landmarks on the
// given weight snapshot — served from the registry when a structurally
// identical build is cached, built (and cached) otherwise. bottleneck
// requests a set carrying the minimax tables (Landmarks.WithBottleneck)
// for KindBottleneck consumers; additive-only and bottleneck-carrying
// sets are distinct entries. The returned set is immutable and shared;
// it is bound to g's frozen CSR, so it passes Incremental.SetOracle's
// topology check directly. Safe for concurrent use. Two goroutines
// missing on the same key may both build; one build wins the cache slot
// and both results are byte-identical, so either is safe to use.
func (r *LandmarkRegistry) Get(g *graph.Graph, k int, weight WeightFunc, bottleneck bool) *Landmarks {
	csr := g.Freeze()
	fp := fingerprint(g, csr, k, weight, bottleneck)
	if lm := r.lookup(fp, g, csr, k, weight, bottleneck); lm != nil {
		r.hits.Add(1)
		return lm
	}
	r.misses.Add(1)
	lm := BuildLandmarks(g, k, weight)
	if bottleneck {
		lm.WithBottleneck(g)
	}
	r.store(&registryEntry{fp: fp, k: k, bottleneck: bottleneck, lm: lm})
	return lm
}

// Stats returns the registry's lifetime hit and miss counts.
func (r *LandmarkRegistry) Stats() (hits, misses int64) {
	return r.hits.Load(), r.misses.Load()
}

// Len returns how many table sets the registry currently holds.
func (r *LandmarkRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// lookup scans for a verified fingerprint match, promoting it to
// most-recently-used and rebinding it to csr when the hit was built on
// a different (structurally identical) graph value.
func (r *LandmarkRegistry) lookup(fp uint64, g *graph.Graph, csr *graph.CSR, k int, weight WeightFunc, bottleneck bool) *Landmarks {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, en := range r.entries {
		if en.fp != fp || en.k != k || en.bottleneck != bottleneck {
			continue
		}
		if !en.matches(g, csr, weight) {
			continue // fingerprint collision
		}
		copy(r.entries[1:i+1], r.entries[:i])
		r.entries[0] = en
		if en.lm.csr == csr {
			return en.lm
		}
		return en.lm.rebind(csr)
	}
	return nil
}

// store inserts a freshly built entry at the front, evicting the least
// recently used entry past capacity. A racing insert of the same
// fingerprint is tolerated — the duplicate ages out of the LRU.
func (r *LandmarkRegistry) store(en *registryEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) >= r.cap {
		r.entries = r.entries[:r.cap-1]
	}
	r.entries = append(r.entries, nil)
	copy(r.entries[1:], r.entries)
	r.entries[0] = en
}

// matches verifies an entry against the requested build element-wise:
// same topology (CSR arrays) and the exact same lower-bound weight on
// every edge. The weight comparison is on float equality on purpose —
// tables for even a one-ulp different snapshot are a different cache
// key (their bounds differ), and the exponential-price solvers
// recompute initial prices deterministically, so equal snapshots
// really are bit-equal.
func (en *registryEntry) matches(g *graph.Graph, csr *graph.CSR, weight WeightFunc) bool {
	lc := en.lm.csr
	if lc != csr {
		if len(lc.Start) != len(csr.Start) || len(lc.Head) != len(csr.Head) {
			return false
		}
		for i := range csr.Start {
			if lc.Start[i] != csr.Start[i] {
				return false
			}
		}
		for i := range csr.Head {
			if lc.Head[i] != csr.Head[i] || lc.EdgeID[i] != csr.EdgeID[i] {
				return false
			}
		}
	}
	if len(en.lm.lb) != g.NumEdges() {
		return false
	}
	for e := range en.lm.lb {
		if en.lm.lb[e] != weight(e) {
			return false
		}
	}
	return true
}

// fingerprint hashes the build key — vertex count, directedness, the
// CSR arrays, the landmark count, the table kinds, and the weight bits
// of every edge — with FNV-1a 64.
func fingerprint(g *graph.Graph, csr *graph.CSR, k int, weight WeightFunc, bottleneck bool) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(uint64(g.NumVertices()))
	if g.Directed() {
		mix(1)
	} else {
		mix(2)
	}
	mix(uint64(k))
	if bottleneck {
		mix(3)
	} else {
		mix(4)
	}
	for _, v := range csr.Start {
		mix(uint64(uint32(v)))
	}
	for i := range csr.Head {
		mix(uint64(uint32(csr.Head[i])))
		mix(uint64(uint32(csr.EdgeID[i])))
	}
	for e, m := 0, g.NumEdges(); e < m; e++ {
		mix(math.Float64bits(weight(e)))
	}
	return h
}
