// Package mechanism turns the monotone, exact allocation algorithms into
// truthful mechanisms, following the characterization the paper cites as
// Theorem 2.3 (Lehmann-O'Callaghan-Shoham / Briest-Krysta-Vöcking): a
// monotone and exact algorithm plus critical-value payments is
// incentive compatible. The package computes critical values, assembles
// payment outcomes, and provides the misreport harness used to verify
// truthfulness empirically — and to exhibit the NON-monotonicity of
// randomized rounding (experiment E8).
//
// Bounded-UFP winners get their critical values exactly, from one
// counterfactual run each (core.BoundedUFPCriticalCtx, which the
// BoundedUFPAlg adapter attaches to its allocations as
// core.Allocation.Critical). Every other algorithm — the sequential
// baseline, rounding, Bounded-MUCA, ad-hoc test algorithms — gets them by
// bisection over re-runs of the (deterministic) algorithm.
package mechanism

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"truthfulufp/internal/core"
	"truthfulufp/internal/pathfind"
)

// UFPAlgorithm is any deterministic UFP allocation algorithm. The
// mechanism re-runs it with modified declarations, so it must be a pure
// function of the instance.
type UFPAlgorithm func(inst *core.Instance) (*core.Allocation, error)

// BoundedUFPAlg adapts core.BoundedUFP with fixed parameters. Every
// allocation it returns carries core.Allocation.Critical, which computes
// a winner's exact critical value with one counterfactual run
// (core.BoundedUFPCriticalCtx) under the same options; the mechanism
// drivers use it instead of bisection. A mechanism run is thus one run
// per winner on top of the allocation, so the adapter tunes the options
// for repeated runs on one instance: unless opt already carries a
// scratch pool it installs one shared across all of the closure's runs
// — the solver then reuses its Dijkstra state instead of re-allocating
// it per run — and it enables the single-target path oracle: the
// adaptive tree-vs-PathTo policy (core.Options.Adaptive) with ALT
// landmark pruning, the tables built once per frozen topology and
// shared across all runs (core.Options.Landmarks — every run's prices
// start at the same floor 1/c_e, so the bounds hold for all of them).
// All tunings are bit-transparent: the
// adapted algorithm's allocations are identical to a bare
// core.BoundedUFP.
func BoundedUFPAlg(eps float64, opt *core.Options) UFPAlgorithm {
	return BoundedUFPAlgCtx(nil, eps, opt)
}

// SequentialPrimalDualAlg adapts the sequential baseline (also
// monotone), with the same shared scratch pool across re-runs.
func SequentialPrimalDualAlg(eps float64) UFPAlgorithm {
	opt := &core.Options{PathPool: pathfind.NewPool()}
	return func(inst *core.Instance) (*core.Allocation, error) {
		return core.SequentialPrimalDual(inst, eps, opt)
	}
}

// CriticalPrecision is the relative bisection tolerance for critical
// values. Exact critical values (core.Allocation.Critical) agree with
// bisection to within it.
const CriticalPrecision = 1e-9

// maxBisection bounds the number of algorithm re-runs per critical value;
// 60 halvings reduce any bracket below double-precision resolution.
const maxBisection = 60

// UFPCriticalValue computes the critical value of request r: the
// infimum declared value at which r is still selected, holding its
// demand and all other requests fixed. The request must be selected
// under its current declaration (that declaration bounds the value from
// above; monotonicity guarantees a unique threshold). When alg's
// allocation carries core.Allocation.Critical (BoundedUFPAlg) the value
// is exact; otherwise it is bisected, and the result is an upper bracket
// within CriticalPrecision relatively.
func UFPCriticalValue(alg UFPAlgorithm, inst *core.Instance, r int) (float64, error) {
	if r < 0 || r >= len(inst.Requests) {
		return 0, fmt.Errorf("mechanism: request %d out of range", r)
	}
	a, err := alg(inst)
	if err != nil {
		return 0, err
	}
	if !a.Selected(len(inst.Requests))[r] {
		return 0, errors.New("mechanism: request is not selected at its declared value")
	}
	return criticalValue(alg, inst, a, r)
}

// criticalValue is the critical value of request r, a winner of a =
// alg(inst): from a.Critical when the adapter set it, capped at r's
// declared value as bisection's bracket is, and by bisection otherwise.
func criticalValue(alg UFPAlgorithm, inst *core.Instance, a *core.Allocation, r int) (float64, error) {
	hi := inst.Requests[r].Value
	if a.Critical != nil {
		crit, err := a.Critical(r)
		if err != nil {
			return 0, err
		}
		return math.Min(crit, hi), nil
	}
	lo := 0.0
	for iter := 0; iter < maxBisection && hi-lo > CriticalPrecision*hi; iter++ {
		mid := (lo + hi) / 2
		if mid <= 0 {
			break
		}
		sel, err := ufpSelectedAt(alg, inst, r, mid)
		if err != nil {
			return 0, err
		}
		if sel {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

func ufpSelectedAt(alg UFPAlgorithm, inst *core.Instance, r int, value float64) (bool, error) {
	mod := inst.Clone()
	mod.Requests[r].Value = value
	a, err := alg(mod)
	if err != nil {
		return false, err
	}
	return a.Selected(len(mod.Requests))[r], nil
}

// UFPOutcome is a mechanism outcome: the allocation plus critical-value
// payments for selected requests (unselected requests pay nothing).
type UFPOutcome struct {
	Allocation *core.Allocation
	// Payments maps selected request index to its payment.
	Payments map[int]float64
}

// RunUFPMechanism runs the allocation algorithm and charges every
// selected request its critical value. By Theorem 2.3 the resulting
// mechanism is truthful when alg is monotone and exact. See
// RunUFPMechanismCtx for the cancellable variant.
func RunUFPMechanism(alg UFPAlgorithm, inst *core.Instance) (*UFPOutcome, error) {
	return RunUFPMechanismCtx(context.Background(), alg, inst)
}

// UFPUtility evaluates agent r's utility when its true type is trueType
// and the instance inst carries its declared type: the paper's known-
// endpoints single-minded model. An exact mechanism routes exactly the
// declared demand, which serves the agent only if it covers the true
// demand; the agent then enjoys its true value and pays its critical
// payment.
func UFPUtility(out *UFPOutcome, inst *core.Instance, r int, trueType core.Request) float64 {
	pay, selected := out.Payments[r]
	if !selected {
		return 0
	}
	gross := 0.0
	if inst.Requests[r].Demand >= trueType.Demand-1e-12 {
		gross = trueType.Value
	}
	return gross - pay
}

// UFPMisreportGain searches for a profitable misreport for agent r by
// trying trials random (demand, value) declarations. It returns the
// best utility improvement found over truthful reporting (<= ~0, up to
// CriticalPrecision, when the mechanism is truthful) and the best
// misreport tried.
func UFPMisreportGain(alg UFPAlgorithm, inst *core.Instance, r int, rng *rand.Rand, trials int) (float64, core.Request, error) {
	truthful, err := runMechanismForAgent(alg, inst, r)
	if err != nil {
		return 0, core.Request{}, err
	}
	trueType := inst.Requests[r]
	baseU := UFPUtility(truthful, inst, r, trueType)
	bestGain := math.Inf(-1)
	var bestDecl core.Request
	for trial := 0; trial < trials; trial++ {
		decl := trueType
		// Perturb demand within (0, 1] and value within (0, 4v].
		switch trial % 3 {
		case 0:
			decl.Value = trueType.Value * (0.1 + 3.9*rng.Float64())
		case 1:
			decl.Demand = math.Min(1, trueType.Demand*(0.2+1.6*rng.Float64()))
		default:
			decl.Value = trueType.Value * (0.1 + 3.9*rng.Float64())
			decl.Demand = math.Min(1, trueType.Demand*(0.2+1.6*rng.Float64()))
		}
		mod := inst.Clone()
		mod.Requests[r] = decl
		out, err := runMechanismForAgent(alg, mod, r)
		if err != nil {
			return 0, core.Request{}, err
		}
		if gain := UFPUtility(out, mod, r, trueType) - baseU; gain > bestGain {
			bestGain = gain
			bestDecl = decl
		}
	}
	return bestGain, bestDecl, nil
}

// runMechanismForAgent computes payments only for agent r (cheaper than
// the full mechanism when probing misreports).
func runMechanismForAgent(alg UFPAlgorithm, inst *core.Instance, r int) (*UFPOutcome, error) {
	a, err := alg(inst)
	if err != nil {
		return nil, err
	}
	out := &UFPOutcome{Allocation: a, Payments: make(map[int]float64)}
	if a.Selected(len(inst.Requests))[r] {
		pay, err := criticalValue(alg, inst, a, r)
		if err != nil {
			return nil, err
		}
		out.Payments[r] = pay
	}
	a.Critical = nil // it pins inst and the adapter's scratch pool
	return out, nil
}

// MonotonicityWitness records a concrete monotonicity violation: request
// r was selected under the original declaration but dropped after an
// improvement (demand decreased and/or value increased).
type MonotonicityWitness struct {
	Request           int
	Original, Improve core.Request
}

func (w *MonotonicityWitness) String() string {
	return fmt.Sprintf("request %d: selected with (d=%.4g, v=%.4g) but dropped with improved (d=%.4g, v=%.4g)",
		w.Request, w.Original.Demand, w.Original.Value, w.Improve.Demand, w.Improve.Value)
}

// FindUFPMonotonicityViolation searches for a monotonicity violation of
// alg on inst by sampling improvements of selected requests. It returns
// nil if none is found within the trial budget — which is evidence (not
// proof) of monotonicity; for non-monotone algorithms such as randomized
// rounding it typically finds a witness quickly (experiment E8).
func FindUFPMonotonicityViolation(alg UFPAlgorithm, inst *core.Instance, rng *rand.Rand, trials int) (*MonotonicityWitness, error) {
	base, err := alg(inst)
	if err != nil {
		return nil, err
	}
	sel := base.Selected(len(inst.Requests))
	var selected []int
	for r, s := range sel {
		if s {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		return nil, nil
	}
	for trial := 0; trial < trials; trial++ {
		r := selected[rng.IntN(len(selected))]
		orig := inst.Requests[r]
		improved := orig
		improved.Demand = orig.Demand * (0.4 + 0.6*rng.Float64())
		improved.Value = orig.Value * (1 + rng.Float64())
		mod := inst.Clone()
		mod.Requests[r] = improved
		got, err := alg(mod)
		if err != nil {
			return nil, err
		}
		if !got.Selected(len(mod.Requests))[r] {
			return &MonotonicityWitness{Request: r, Original: orig, Improve: improved}, nil
		}
	}
	return nil, nil
}
