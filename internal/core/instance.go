// Package core implements the paper's primary contribution: the monotone
// deterministic primal-dual algorithms for the large-capacity
// unsplittable flow problem (UFP).
//
//   - BoundedUFP is Algorithm 1 (Bounded-UFP): an e/(e-1)-approximation
//     for the Ω(ln m)-bounded UFP, monotone and exact with respect to
//     every request's demand and value, hence convertible into a truthful
//     mechanism (Theorem 3.1, Corollary 3.2).
//   - BoundedUFPRepeat is Algorithm 3 (Bounded-UFP-Repeat): a
//     (1+ε)-approximation when requests may be satisfied repeatedly
//     (Theorem 5.1).
//   - IterativePathMin is the family of "reasonable iterative path
//     minimizing algorithms" (Definition 3.10) with pluggable priority
//     rules, used to realize the paper's lower-bound constructions
//     (Theorems 3.11 and 3.12).
//   - Baselines: a sequential exponential-price algorithm standing in for
//     the prior-art ≈e mechanisms, value-density greedy, and
//     (non-monotone) randomized LP rounding.
//
// Throughout, instances are in the paper's normalized form: demands lie
// in (0, 1] and B = min_e c_e is the capacity bound.
package core

import (
	"errors"
	"fmt"
	"math"

	"truthfulufp/internal/graph"
	"truthfulufp/internal/pathfind"
)

// Request is a connection request (s_r, t_r, d_r, v_r): route demand
// Demand from Source to Target for profit Value. Requests are identified
// by their index in the instance's Requests slice.
type Request struct {
	Source, Target int
	Demand         float64 // in (0,1] after normalization
	Value          float64 // > 0
}

// Instance is an unsplittable flow instance: an edge-capacitated graph
// plus a set of requests.
type Instance struct {
	G        *graph.Graph
	Requests []Request
}

// B returns the paper's capacity bound B = min_e c_e (for a normalized
// instance; see Normalized).
func (inst *Instance) B() float64 { return inst.G.MinCapacity() }

// Validate checks that the instance is well-formed and normalized:
// valid graph, endpoints in range, source != target, demands in (0,1],
// positive finite values, and B >= 1 so that Lemma 3.3's feasibility
// argument applies.
func (inst *Instance) Validate() error {
	if inst.G == nil {
		return errors.New("core: instance has no graph")
	}
	if err := inst.G.Validate(); err != nil {
		return err
	}
	n := inst.G.NumVertices()
	for i, r := range inst.Requests {
		if r.Source < 0 || r.Source >= n || r.Target < 0 || r.Target >= n {
			return fmt.Errorf("core: request %d endpoints (%d,%d) out of range [0,%d)", i, r.Source, r.Target, n)
		}
		if r.Source == r.Target {
			return fmt.Errorf("core: request %d has source == target == %d", i, r.Source)
		}
		if !(r.Demand > 0) || r.Demand > 1 || math.IsNaN(r.Demand) {
			return fmt.Errorf("core: request %d demand %g outside (0,1] (normalize first)", i, r.Demand)
		}
		if !(r.Value > 0) || math.IsInf(r.Value, 0) || math.IsNaN(r.Value) {
			return fmt.Errorf("core: request %d value %g not positive finite", i, r.Value)
		}
	}
	if len(inst.Requests) > 0 && inst.G.MinCapacity() < 1 {
		return fmt.Errorf("core: B = %g < 1; the B-bounded model requires min capacity >= max demand", inst.G.MinCapacity())
	}
	return nil
}

// Normalized returns a copy of the instance scaled so that demands lie in
// (0,1]: all demands and all capacities are divided by the maximum
// demand. The returned scale is that maximum demand (1 if there are no
// requests). Values are untouched, so objective values are comparable
// before and after.
func (inst *Instance) Normalized() (*Instance, float64) {
	maxD := 0.0
	for _, r := range inst.Requests {
		if r.Demand > maxD {
			maxD = r.Demand
		}
	}
	if maxD == 0 {
		return &Instance{G: inst.G.Clone(), Requests: nil}, 1
	}
	g := inst.G.Clone()
	g.ScaleCapacities(1 / maxD)
	reqs := make([]Request, len(inst.Requests))
	for i, r := range inst.Requests {
		r.Demand /= maxD
		reqs[i] = r
	}
	return &Instance{G: g, Requests: reqs}, maxD
}

// Clone returns a deep copy of the instance.
func (inst *Instance) Clone() *Instance {
	reqs := make([]Request, len(inst.Requests))
	copy(reqs, inst.Requests)
	return &Instance{G: inst.G.Clone(), Requests: reqs}
}

// TotalValue returns the sum of all request values (the trivial upper
// bound on any allocation's value).
func (inst *Instance) TotalValue() float64 {
	v := 0.0
	for _, r := range inst.Requests {
		v += r.Value
	}
	return v
}

// StopReason records why an algorithm's main loop terminated.
type StopReason int

// Stop reasons.
const (
	// StopAllSatisfied: every request was allocated (L = ∅); the solution
	// is optimal.
	StopAllSatisfied StopReason = iota
	// StopDualThreshold: the dual value exceeded e^{ε(B-1)} (the paper's
	// main-loop guard, line 5 of Algorithm 1).
	StopDualThreshold
	// StopNoRoutablePath: no remaining request has any path (with residual
	// capacity, where applicable).
	StopNoRoutablePath
	// StopIterationLimit: a configured iteration cap was reached.
	StopIterationLimit
)

func (s StopReason) String() string {
	switch s {
	case StopAllSatisfied:
		return "all-satisfied"
	case StopDualThreshold:
		return "dual-threshold"
	case StopNoRoutablePath:
		return "no-routable-path"
	case StopIterationLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("StopReason(%d)", int(s))
}

// Routed is one (request, path) pair in an allocation. Path holds edge
// IDs from the request's source to its target.
type Routed struct {
	Request int
	Path    []int
}

// Allocation is the output of a UFP algorithm: the selected (request,
// path) pairs in selection order, plus diagnostics. For repetition-free
// algorithms each request appears at most once; BoundedUFPRepeat may
// repeat requests.
type Allocation struct {
	Routed     []Routed
	Value      float64    // sum of values of routed pairs
	Iterations int        // main-loop iterations executed
	Stop       StopReason // why the main loop ended
	// DualBound is a certified upper bound on the optimal *fractional* LP
	// value (and therefore on the integral optimum), obtained from the
	// paper's own dual-fitting construction (Claim 3.6 / Claim 5.2):
	// scaling the prices y by 1/α(i) yields a feasible dual solution. It
	// is 0 if the algorithm does not track duals or +Inf if no finite
	// bound was established.
	DualBound float64
	// Critical, if non-nil, returns the critical value of a request of
	// the instance this allocation was computed on, under the algorithm
	// that computed it (see BoundedUFPCriticalCtx). It is set only by the
	// mechanism adapter (mechanism.BoundedUFPAlgCtx), which the
	// mechanism drivers clear before returning, and it is never
	// serialized.
	Critical func(r int) (float64, error) `json:"-"`
}

// Selected returns a set-membership slice: sel[r] is true if request r is
// routed at least once.
func (a *Allocation) Selected(numRequests int) []bool {
	sel := make([]bool, numRequests)
	for _, p := range a.Routed {
		sel[p.Request] = true
	}
	return sel
}

// EdgeLoads returns the per-edge routed demand of the allocation.
func (a *Allocation) EdgeLoads(inst *Instance) []float64 {
	load := make([]float64, inst.G.NumEdges())
	for _, p := range a.Routed {
		d := inst.Requests[p.Request].Demand
		for _, e := range p.Path {
			load[e] += d
		}
	}
	return load
}

// CheckFeasible verifies the allocation: every path is a simple
// source-to-target path for its request, no edge exceeds its capacity,
// and (unless repetitions is true) no request is routed twice. This is
// the executable form of Lemma 3.3.
func (a *Allocation) CheckFeasible(inst *Instance, repetitions bool) error {
	seen := make([]bool, len(inst.Requests))
	for k, p := range a.Routed {
		if p.Request < 0 || p.Request >= len(inst.Requests) {
			return fmt.Errorf("core: routed[%d] references request %d out of range", k, p.Request)
		}
		r := inst.Requests[p.Request]
		if !repetitions {
			if seen[p.Request] {
				return fmt.Errorf("core: request %d routed more than once", p.Request)
			}
			seen[p.Request] = true
		}
		if !pathfind.ValidatePath(inst.G, r.Source, r.Target, p.Path) {
			return fmt.Errorf("core: routed[%d] path %v is not a valid %d->%d path", k, p.Path, r.Source, r.Target)
		}
		if !pathfind.IsSimple(inst.G, r.Source, p.Path) {
			return fmt.Errorf("core: routed[%d] path %v is not simple", k, p.Path)
		}
	}
	for e, load := range a.EdgeLoads(inst) {
		if c := inst.G.Edge(e).Capacity; load > c+1e-7 {
			return fmt.Errorf("core: edge %d overloaded: %g > %g", e, load, c)
		}
	}
	value := 0.0
	for _, p := range a.Routed {
		value += inst.Requests[p.Request].Value
	}
	if math.Abs(value-a.Value) > 1e-6*(1+math.Abs(value)) {
		return fmt.Errorf("core: reported value %g != recomputed %g", a.Value, value)
	}
	return nil
}

// maxSafeExponent bounds ε(B-1): beyond this, e^{ε(B-1)} overflows
// float64 (which caps near e^709). Algorithms reject such instances with
// a descriptive error rather than silently misbehaving.
const maxSafeExponent = 600

func checkExponentRange(eps, b float64) error {
	if eps*b > maxSafeExponent {
		return fmt.Errorf("core: ε·B = %g exceeds %g; e^{ε(B-1)} would overflow float64 — rescale the instance or reduce ε", eps*b, float64(maxSafeExponent))
	}
	return nil
}

func validateEps(eps float64) error {
	if !(eps > 0) || eps > 1 || math.IsNaN(eps) {
		return fmt.Errorf("core: accuracy parameter ε = %g outside (0,1]", eps)
	}
	return nil
}
