package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"truthfulufp/internal/graph"
	"truthfulufp/internal/pathfind"
)

// This file implements the paper's *online* admission setting as a
// persistent-state API. Azar et al.'s mechanism is inherently
// sequential — requests arrive one at a time against a long-lived
// capacitated network — and AdmissionState is that network's live
// solver state: the exponential dual prices y_e = (1/c_e)·e^{εB·f_e/c_e},
// the residual flow ledger, and a warm dirty-source path cache, so each
// admission costs one single-target shortest-path query (usually served
// incrementally) instead of a full solve.
//
// The admission rule ("ufp/online" in the registry) is the sequential
// primal-dual baseline restructured for incremental serving: the path
// is chosen under the *pure price* weight y_e — which is edge-local and
// monotone non-decreasing, exactly the contract pathfind.Incremental
// reuses cached structures under — and residual capacity is enforced as
// a post-check on the chosen path rather than folded into the weight
// (SequentialPrimalDual's per-request residual filter depends on the
// request's demand, which would break the cache's edge-local-weight
// invariant across requests). The two rules agree until an edge
// saturates; afterwards the online rule may quote an unroutable path
// and reject on capacity where the baseline would have detoured. Both
// admit iff d_r·Σ_{e∈p} y_e <= v_r.
//
// Monotonicity — hence truthfulness via critical-value payments — is
// preserved: for a fixed history, the chosen path is independent of
// (d_r, v_r), lowering d_r only helps both the price and capacity
// tests, and raising v_r only helps the price test. Release subtracts
// flow but never lowers prices: price reversal would violate the
// monotone-weights contract (silently staling every cached structure)
// and would let a bidder churn admit/release cycles to probe or reset
// prices.

// RejectReason says why an admission was declined. The values are
// stable API (they appear verbatim in ufpserve's wire schema).
type RejectReason string

// Reject reasons.
const (
	// RejectNoPath: the network has no source→target path at all (under
	// monotone prices, reachability never comes back).
	RejectNoPath RejectReason = "no-path"
	// RejectPrice: the cheapest path's price d_r·Σ y_e exceeds the
	// request's value.
	RejectPrice RejectReason = "price"
	// RejectCapacity: the cheapest path no longer has residual capacity
	// for the request's demand.
	RejectCapacity RejectReason = "capacity"
)

// Decision is the outcome of one admission (or price quote). Price is
// the exponential-price charge d_r·Σ_{e∈p} y_e of the chosen path —
// meaningful for both admits and price rejections (+Inf when no path
// exists).
type Decision struct {
	// Admitted reports whether the request was (or, for Quote, would
	// be) admitted.
	Admitted bool
	// ID identifies the admission in the state's ledger (for Release);
	// 0 for rejections and quotes.
	ID int64
	// Reason is the rejection reason ("" when admitted).
	Reason RejectReason
	// Price is the quoted charge d_r·Σ_{e∈p} y_e.
	Price float64
	// Path holds the chosen path's edge IDs (nil when no path exists).
	// The slice is owned by the caller.
	Path []int
}

// AdmittedRequest is one live ledger entry of an AdmissionState.
type AdmittedRequest struct {
	ID      int64
	Request Request
	Path    []int
	Price   float64
}

// AdmissionState is the persistent online solver state of one network:
// prices, flows, the admitted ledger, and a warm incremental path
// cache. It is not safe for concurrent use — callers (the session
// layer) serialize access. The graph is frozen at construction and
// must not be mutated afterwards.
type AdmissionState struct {
	g       *graph.Graph
	eps     float64
	b       float64
	y       []float64 // dual prices, y_e = (1/c_e)·e^{εB·f_e/c_e}
	flow    []float64 // committed demand per edge
	dualSum float64   // Σ_e c_e·y_e, the running dual value D1

	inc           *pathfind.Incremental
	noIncremental bool

	ledger map[int64]*AdmittedRequest
	nextID int64
	value  float64 // Σ values of live admissions
}

// ErrRequestNotFound is returned by Release for an unknown (or already
// released) admission ID.
var ErrRequestNotFound = errors.New("core: admission id not found")

// autoLandmarkMinVertices is the network size at which
// NewAdmissionState builds ALT landmark tables by default. Below it
// the 2k landmark Dijkstras cost more than they ever save; above it
// they amortize over the session's admissions. NoIncremental disables
// the auto-build along with the rest of the warm state.
const autoLandmarkMinVertices = 64

// NewAdmissionState builds the online solver state for a network. The
// graph is validated and frozen; eps is the accuracy parameter ε in
// (0,1]; opt supplies the shared scratch pool, the NoIncremental
// escape hatch, and the path-oracle knobs: Options.Landmarks installs
// caller-built ALT tables (they must lower-bound the initial prices
// 1/c_e), Options.Bidirectional routes oracle misses through the
// bidirectional probe. When no tables are supplied, networks of
// autoLandmarkMinVertices or more vertices get tables built from the
// initial prices automatically — prices only rise, so the bounds hold
// for the state's whole life — shared through Options.LandmarkRegistry
// when one is configured. The tables are only rebuilt if a price ever
// falls below its recorded bound (Options.OnLandmarkRebuild observes
// each rebuild), which monotone prices never do. Other Options fields
// are ignored — admission
// is a single-query step with no intra-step parallelism or tie-break
// surface.
func NewAdmissionState(g *graph.Graph, eps float64, opt *Options) (*AdmissionState, error) {
	if g == nil {
		return nil, errors.New("core: admission state needs a graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	b := g.MinCapacity()
	if b < 1 {
		return nil, fmt.Errorf("core: B = %g < 1; the B-bounded model requires min capacity >= max demand", b)
	}
	if err := checkExponentRange(eps, b); err != nil {
		return nil, err
	}
	g.Freeze()
	m := g.NumEdges()
	st := &AdmissionState{
		g:             g,
		eps:           eps,
		b:             b,
		y:             make([]float64, m),
		flow:          make([]float64, m),
		inc:           pathfind.NewIncremental(g, nil, opt.pathPool()),
		noIncremental: opt.noIncremental(),
		ledger:        make(map[int64]*AdmittedRequest),
		nextID:        1,
	}
	for e := 0; e < m; e++ {
		st.y[e] = 1 / g.Edge(e).Capacity
		st.dualSum++
	}
	lm := opt.landmarks()
	if lm == nil && !opt.noIncremental() && g.NumVertices() >= autoLandmarkMinVertices {
		// Auto-build from the initial prices; a registry (the serving
		// stack passes pathfind.SharedLandmarks) shares the tables with
		// every other session on a structurally identical topology —
		// initial prices are exactly 1/capacity, so sessions on the same
		// network fingerprint-match.
		if reg := opt.landmarkRegistry(); reg != nil {
			lm = reg.Get(g, pathfind.DefaultLandmarkCount, pathfind.FromSlice(st.y), false)
		} else {
			lm = pathfind.BuildLandmarks(g, pathfind.DefaultLandmarkCount, pathfind.FromSlice(st.y))
		}
	}
	st.inc.SetOracle(opt.oracleConfig(lm))
	return st, nil
}

// validateRequest checks one request against the state's graph — the
// per-request slice of Instance.Validate.
func (st *AdmissionState) validateRequest(r Request) error {
	n := st.g.NumVertices()
	if r.Source < 0 || r.Source >= n || r.Target < 0 || r.Target >= n {
		return fmt.Errorf("core: request endpoints (%d,%d) out of range [0,%d)", r.Source, r.Target, n)
	}
	if r.Source == r.Target {
		return fmt.Errorf("core: request has source == target == %d", r.Source)
	}
	if !(r.Demand > 0) || r.Demand > 1 || math.IsNaN(r.Demand) {
		return fmt.Errorf("core: request demand %g outside (0,1] (normalize first)", r.Demand)
	}
	if !(r.Value > 0) || math.IsInf(r.Value, 0) || math.IsNaN(r.Value) {
		return fmt.Errorf("core: request value %g not positive finite", r.Value)
	}
	return nil
}

// decide runs the admission tests without committing: cheapest path
// under the current prices, price test, residual-capacity post-check.
func (st *AdmissionState) decide(r Request) (Decision, error) {
	if err := st.validateRequest(r); err != nil {
		return Decision{}, err
	}
	slot := st.inc.AddSource(r.Source)
	if st.noIncremental {
		st.inc.InvalidateAll()
	}
	path, dist, ok := st.inc.PathTo(slot, r.Target, pathfind.FromSlice(st.y))
	if !ok {
		return Decision{Reason: RejectNoPath, Price: math.Inf(1)}, nil
	}
	// The cache owns the returned slice; hand callers their own copy.
	path = append([]int(nil), path...)
	price := r.Demand * dist
	if price > r.Value {
		return Decision{Reason: RejectPrice, Price: price, Path: path}, nil
	}
	for _, e := range path {
		if st.flow[e]+r.Demand > st.g.Edge(e).Capacity+feasTol {
			return Decision{Reason: RejectCapacity, Price: price, Path: path}, nil
		}
	}
	return Decision{Admitted: true, Price: price, Path: path}, nil
}

// Quote prices a request against the current state without admitting
// it: the returned Decision says whether Admit would accept right now
// and at what price. Quoting never changes prices or flows.
func (st *AdmissionState) Quote(r Request) (Decision, error) {
	d, err := st.decide(r)
	if err != nil {
		return Decision{}, err
	}
	return d, nil
}

// Admit processes one online request: route it along the cheapest path
// under the current exponential prices, admit iff the price is within
// the request's value and the path has residual capacity, and on
// admission commit the flow, raise the prices along the path
// (y_e ← y_e·e^{εB·d/c_e}), and record the admission in the ledger
// under the returned Decision.ID.
func (st *AdmissionState) Admit(r Request) (Decision, error) {
	d, err := st.decide(r)
	if err != nil || !d.Admitted {
		return d, err
	}
	for _, e := range d.Path {
		c := st.g.Edge(e).Capacity
		old := st.y[e]
		st.y[e] = old * math.Exp(st.eps*st.b*r.Demand/c)
		st.dualSum += c * (st.y[e] - old)
		st.flow[e] += r.Demand
	}
	st.inc.Invalidate(d.Path)
	d.ID = st.nextID
	st.nextID++
	st.ledger[d.ID] = &AdmittedRequest{ID: d.ID, Request: r, Path: d.Path, Price: d.Price}
	st.value += r.Value
	return d, nil
}

// Release frees the capacity held by a prior admission: the flow on its
// path is returned and the ledger entry removed. Prices are *not*
// lowered — the monotone-weights contract the incremental cache rests
// on forbids it, and a price-reversing release would let bidders reset
// prices by churning admit/release cycles. The released entry is
// returned for the caller's records.
func (st *AdmissionState) Release(id int64) (*AdmittedRequest, error) {
	a, ok := st.ledger[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrRequestNotFound, id)
	}
	delete(st.ledger, id)
	for _, e := range a.Path {
		st.flow[e] -= a.Request.Demand
		if st.flow[e] < 0 { // float round-off from unordered add/subtract
			st.flow[e] = 0
		}
	}
	st.value -= a.Request.Value
	return a, nil
}

// Graph returns the state's (frozen) network.
func (st *AdmissionState) Graph() *graph.Graph { return st.g }

// Eps returns the accuracy parameter ε the state was built with.
func (st *AdmissionState) Eps() float64 { return st.eps }

// NumAdmitted returns the number of live (non-released) admissions.
func (st *AdmissionState) NumAdmitted() int { return len(st.ledger) }

// Value returns the total value of live admissions.
func (st *AdmissionState) Value() float64 { return st.value }

// DualSum returns the running dual value Σ_e c_e·y_e — the saturation
// gauge D1 of the paper's analysis (it only grows over a state's life,
// releases included).
func (st *AdmissionState) DualSum() float64 { return st.dualSum }

// PathStats reports the incremental cache's recomputed/reused counters
// — the observable form of the warm-state speedup.
func (st *AdmissionState) PathStats() (recomputed, reused int64) { return st.inc.Stats() }

// CacheStats reports the full observer view of the warm path cache
// (refresh counts, dirty-source split, PathTo hit/miss split) — what
// the serving stack's /metrics gauges are built from. Call under
// whatever serialization drives the state (its operations are
// single-goroutine, like the cache's).
func (st *AdmissionState) CacheStats() pathfind.CacheStats { return st.inc.CacheStats() }

// Ledger returns the live admissions in ascending ID order. The entries
// are shared with the state; treat them as read-only.
func (st *AdmissionState) Ledger() []*AdmittedRequest {
	out := make([]*AdmittedRequest, 0, len(st.ledger))
	for id := int64(1); id < st.nextID && len(out) < len(st.ledger); id++ {
		if a, ok := st.ledger[id]; ok {
			out = append(out, a)
		}
	}
	return out
}

// OnlineAdmission is the batch spelling of the online admission rule:
// it streams the instance's requests in input order through a fresh
// AdmissionState and reports the admitted set as an Allocation. It is
// the offline reference the session layer's streamed admits are
// byte-identical to — both run the same Admit step on the same state
// evolution — and the registry body of "ufp/online". Iterations counts
// admissions; DualBound is +Inf (the online rule certifies no bound).
func OnlineAdmission(inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return OnlineAdmissionCtx(nil, inst, eps, opt)
}

// OnlineAdmissionCtx is OnlineAdmission under a context.
func OnlineAdmissionCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	st, err := NewAdmissionState(inst.G, eps, opt)
	if err != nil {
		return nil, err
	}
	alloc := &Allocation{DualBound: math.Inf(1)}
	for i, r := range inst.Requests {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("core: online admission cancelled at request %d: %w", i, err)
		}
		d, err := st.Admit(r)
		if err != nil {
			return nil, fmt.Errorf("core: request %d: %w", i, err)
		}
		if d.Admitted {
			alloc.Routed = append(alloc.Routed, Routed{Request: i, Path: d.Path})
			alloc.Value += r.Value
			alloc.Iterations++
		}
	}
	alloc.Stop = StopAllSatisfied
	if len(alloc.Routed) < len(inst.Requests) {
		alloc.Stop = StopNoRoutablePath
	}
	return alloc, nil
}
