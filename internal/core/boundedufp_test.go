package core_test

import (
	"context"
	"math"
	"testing"

	"truthfulufp/internal/core"
	"truthfulufp/internal/workload"
)

func TestBoundedUFPPicksHigherValueOnContention(t *testing.T) {
	// One unit-capacity edge, two unit-demand requests with values 1 and
	// 2: the normalized length (d/v)·y is smaller for the value-2 request.
	inst := singleEdge(1, [2]float64{1, 1}, [2]float64{1, 2})
	a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, 0.5, nil) })
	checkFeasible(t, inst, a, false)
	if a.Value != 2 {
		t.Fatalf("value = %g, want 2", a.Value)
	}
	if len(a.Routed) != 1 || a.Routed[0].Request != 1 {
		t.Fatalf("routed = %+v, want request 1 only", a.Routed)
	}
	if a.Stop != core.StopDualThreshold {
		t.Fatalf("stop = %v, want dual-threshold", a.Stop)
	}
}

func TestBoundedUFPSatisfiesAllWhenUncontended(t *testing.T) {
	inst := diamondInstance(10, [2]float64{1, 3}, [2]float64{1, 2}, [2]float64{1, 1})
	a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, 0.5, nil) })
	checkFeasible(t, inst, a, false)
	if a.Stop != core.StopAllSatisfied {
		t.Fatalf("stop = %v, want all-satisfied", a.Stop)
	}
	if a.Value != 6 {
		t.Fatalf("value = %g, want 6", a.Value)
	}
	if a.DualBound != 6 {
		t.Fatalf("dual bound = %g, want 6 (optimal)", a.DualBound)
	}
}

func TestBoundedUFPZeroIterationsWhenBTooSmall(t *testing.T) {
	// Threshold e^{ε(B-1)} = e^{0.5} < m = 4: loop never runs. This is
	// the regime the Ω(ln m) bound excludes.
	inst := diamondInstance(2, [2]float64{1, 1})
	a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, 0.5, nil) })
	if a.Iterations != 0 || a.Value != 0 || a.Stop != core.StopDualThreshold {
		t.Fatalf("got %d iterations, value %g, stop %v; want 0, 0, dual-threshold", a.Iterations, a.Value, a.Stop)
	}
}

func TestBoundedUFPUnroutableRequest(t *testing.T) {
	// Vertex 2 is isolated from 0; the 0->2... no such edge exists, so
	// the request can never be routed and the loop stops cleanly.
	inst := singleEdge(5, [2]float64{1, 1})
	inst.G.AddVertex() // vertex 2, isolated
	inst.Requests = append(inst.Requests, core.Request{Source: 0, Target: 2, Demand: 1, Value: 10})
	a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, 0.5, nil) })
	checkFeasible(t, inst, a, false)
	if a.Stop != core.StopNoRoutablePath {
		t.Fatalf("stop = %v, want no-routable-path", a.Stop)
	}
	if a.Value != 1 {
		t.Fatalf("value = %g, want 1 (only the routable request)", a.Value)
	}
}

func TestBoundedUFPValidation(t *testing.T) {
	inst := singleEdge(2, [2]float64{1, 1})
	if _, err := core.BoundedUFP(inst, 0, nil); err == nil {
		t.Error("eps = 0 accepted")
	}
	if _, err := core.BoundedUFP(inst, 1.5, nil); err == nil {
		t.Error("eps > 1 accepted")
	}
	bad := singleEdge(2, [2]float64{1.5, 1}) // demand > 1
	if _, err := core.BoundedUFP(bad, 0.5, nil); err == nil {
		t.Error("unnormalized demand accepted")
	}
	small := singleEdge(0.5, [2]float64{0.4, 1}) // B < 1
	if _, err := core.BoundedUFP(small, 0.5, nil); err == nil {
		t.Error("B < 1 accepted")
	}
}

func TestBoundedUFPOverflowGuard(t *testing.T) {
	inst := singleEdge(1e6, [2]float64{1, 1})
	if _, err := core.BoundedUFP(inst, 1, nil); err == nil {
		t.Fatal("ε·B = 1e6 accepted; e^{ε(B-1)} would overflow")
	}
}

func TestBoundedUFPEmptyRequests(t *testing.T) {
	inst := singleEdge(2)
	a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, 0.5, nil) })
	if a.Stop != core.StopAllSatisfied || a.Value != 0 {
		t.Fatalf("empty instance: stop %v value %g", a.Stop, a.Value)
	}
}

func TestBoundedUFPFeasibilityProperty(t *testing.T) {
	// Lemma 3.3 as a property: across seeds, epsilons and capacity
	// regimes, the output never violates capacities.
	for _, eps := range []float64{0.05, 1.0 / 6, 0.5, 1} {
		for seed := uint64(0); seed < 6; seed++ {
			cfg := workload.DefaultUFPConfig()
			cfg.B = 3 + float64(seed) // includes small-B regimes
			cfg.Requests = 40
			inst := randomInstance(t, seed+100, cfg)
			a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, eps, nil) })
			checkFeasible(t, inst, a, false)
		}
	}
}

func TestBoundedUFPDeterministicAcrossWorkers(t *testing.T) {
	cfg := workload.DefaultUFPConfig()
	cfg.Requests = 50
	inst := randomInstance(t, 7, cfg)
	a1 := mustSolve(t, func() (*core.Allocation, error) {
		return core.BoundedUFP(inst, 0.2, &core.Options{Workers: 1})
	})
	a8 := mustSolve(t, func() (*core.Allocation, error) {
		return core.BoundedUFP(inst, 0.2, &core.Options{Workers: 8})
	})
	if !equalInts(requestSeq(a1), requestSeq(a8)) {
		t.Fatal("selection order depends on worker count")
	}
	if a1.Value != a8.Value {
		t.Fatalf("value differs across workers: %g vs %g", a1.Value, a8.Value)
	}
}

func TestBoundedUFPMonotonicityProperty(t *testing.T) {
	// Lemma 3.4: if r is selected with (d, v), it stays selected with
	// d' <= d and v' >= v (others fixed); contrapositive for unselected.
	cfg := workload.DefaultUFPConfig()
	cfg.Requests = 25
	cfg.B = 8
	const eps = 0.25
	rng := workload.NewRNG(99)
	for seed := uint64(0); seed < 8; seed++ {
		inst := randomInstance(t, seed, cfg)
		base := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, eps, nil) })
		sel := base.Selected(len(inst.Requests))
		for trial := 0; trial < 12; trial++ {
			r := rng.IntN(len(inst.Requests))
			mod := inst.Clone()
			if sel[r] {
				// Improve the declaration: must stay selected.
				mod.Requests[r].Demand *= 0.5 + 0.5*rng.Float64()
				mod.Requests[r].Value *= 1 + rng.Float64()
			} else {
				// Worsen the declaration: must stay unselected.
				mod.Requests[r].Demand = math.Min(1, mod.Requests[r].Demand*(1+rng.Float64()))
				mod.Requests[r].Value *= 0.3 + 0.7*rng.Float64()
			}
			got := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(mod, eps, nil) })
			gotSel := got.Selected(len(mod.Requests))
			if sel[r] && !gotSel[r] {
				t.Fatalf("seed %d: improving request %d's declaration dropped it (monotonicity violated)", seed, r)
			}
			if !sel[r] && gotSel[r] {
				t.Fatalf("seed %d: worsening request %d's declaration admitted it (monotonicity violated)", seed, r)
			}
		}
	}
}

func TestBoundedUFPDualBoundDominatesExactOPT(t *testing.T) {
	// The dual-fitting bound must upper-bound the exact integral optimum.
	cfg := workload.UFPConfig{
		Vertices: 6, Edges: 10, Requests: 8, Directed: true,
		B: 3, CapSpread: 0.4,
		DemandMin: 0.4, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
	for seed := uint64(0); seed < 10; seed++ {
		inst := randomInstance(t, seed+500, cfg)
		a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, 0.3, nil) })
		opt, err := core.ExactOPT(inst, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Exact {
			t.Skip("path enumeration truncated; choose smaller instance")
		}
		if a.DualBound < opt.Value-1e-6 {
			t.Fatalf("seed %d: dual bound %g < exact OPT %g", seed, a.DualBound, opt.Value)
		}
		if a.Value > opt.Value+1e-6 {
			t.Fatalf("seed %d: algorithm value %g exceeds exact OPT %g", seed, a.Value, opt.Value)
		}
	}
}

func TestTheorem31ApproximationGuarantee(t *testing.T) {
	// Lemma 3.8 regime: B >= ln(m)/ε². With ε = 1/6 and m = 36 edges we
	// need B >= 129. The measured dual-bound ratio must respect
	// (1+6ε)·e/(e-1) (small slack for the dual-fitting gap).
	const eps = 1.0 / 6
	cfg := workload.UFPConfig{
		Vertices: 12, Edges: 36, Requests: 260, Directed: true,
		B: 130, CapSpread: 0.3,
		DemandMin: 0.5, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
	guarantee := (1 + 6*eps) * math.E / (math.E - 1)
	for seed := uint64(0); seed < 3; seed++ {
		inst := randomInstance(t, seed+900, cfg)
		if inst.B() < math.Log(float64(inst.G.NumEdges()))/(eps*eps) {
			t.Fatalf("test misconfigured: B = %g too small", inst.B())
		}
		a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, eps, nil) })
		checkFeasible(t, inst, a, false)
		if a.Value == 0 {
			t.Fatal("algorithm routed nothing in the guaranteed regime")
		}
		ratio := a.DualBound / a.Value
		if ratio > guarantee*1.05 {
			t.Fatalf("seed %d: ratio %.4f exceeds guarantee %.4f", seed, ratio, guarantee)
		}
	}
}

func TestSolveUFPUsesEpsilonOverSix(t *testing.T) {
	inst := singleEdge(30, [2]float64{1, 1})
	var seen []float64
	_, err := core.SolveUFP(inst, 0.6, &core.Options{
		OnIteration: func(iter int, c core.Candidate, dual float64) {
			seen = append(seen, c.Ratio)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("SolveUFP made no iterations")
	}
	// With eps/6 = 0.1 the first price is 1/30 and the ratio d/v·y = 1/30.
	if math.Abs(seen[0]-1.0/30) > 1e-12 {
		t.Fatalf("first ratio %g, want 1/30", seen[0])
	}
}

func TestBoundedUFPRepeatAllowsRepetitions(t *testing.T) {
	// One request, capacity 30: the repetitions variant should route it
	// many times, the plain variant exactly once.
	inst := singleEdge(30, [2]float64{1, 1})
	plain := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFP(inst, 0.3, nil) })
	if len(plain.Routed) != 1 {
		t.Fatalf("plain variant routed %d times, want 1", len(plain.Routed))
	}
	rep := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFPRepeat(inst, 0.3, nil) })
	checkFeasible(t, inst, rep, true)
	if len(rep.Routed) < 2 {
		t.Fatalf("repeat variant routed %d times, want many", len(rep.Routed))
	}
	if rep.Value != float64(len(rep.Routed)) {
		t.Fatalf("value %g != repetitions %d for unit values", rep.Value, len(rep.Routed))
	}
}

func TestBoundedUFPRepeatIterationBound(t *testing.T) {
	// Theorem 5.1: iterations <= m · c_max / d_min.
	inst := diamondInstance(20, [2]float64{0.5, 1}, [2]float64{1, 1.5})
	a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFPRepeat(inst, 0.25, nil) })
	checkFeasible(t, inst, a, true)
	bound := float64(inst.G.NumEdges()) * inst.G.MaxCapacity() / 0.5
	if float64(a.Iterations) > bound {
		t.Fatalf("iterations %d exceed m·c_max/d_min = %g", a.Iterations, bound)
	}
}

func TestTheorem51RepetitionsNearOptimal(t *testing.T) {
	// In the guaranteed regime the repetitions algorithm is
	// (1+6ε)-approximate versus its dual bound.
	const eps = 0.1
	inst := diamondInstance(500, [2]float64{1, 1}, [2]float64{1, 1.3})
	// m = 4, ln(4)/eps² = 139 <= 500. ε·B = 50 within overflow budget.
	a := mustSolve(t, func() (*core.Allocation, error) { return core.BoundedUFPRepeat(inst, eps, nil) })
	checkFeasible(t, inst, a, true)
	ratio := a.DualBound / a.Value
	if ratio > (1+6*eps)*1.02 {
		t.Fatalf("repetitions ratio %.4f exceeds 1+6ε = %.2f", ratio, 1+6*eps)
	}
}

func TestBoundedUFPMaxIterations(t *testing.T) {
	inst := singleEdge(30, [2]float64{1, 1})
	a := mustSolve(t, func() (*core.Allocation, error) {
		return core.BoundedUFPRepeat(inst, 0.3, &core.Options{MaxIterations: 3})
	})
	if a.Iterations != 3 || a.Stop != core.StopIterationLimit {
		t.Fatalf("got %d iterations, stop %v; want 3, iteration-limit", a.Iterations, a.Stop)
	}
}

func TestOnIterationObservesDualGrowth(t *testing.T) {
	inst := diamondInstance(15, [2]float64{1, 1}, [2]float64{1, 2}, [2]float64{1, 3})
	var duals []float64
	_, err := core.BoundedUFP(inst, 0.3, &core.Options{
		OnIteration: func(iter int, c core.Candidate, dual float64) { duals = append(duals, dual) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(duals) != 3 {
		t.Fatalf("observed %d iterations, want 3", len(duals))
	}
	for i := 1; i < len(duals); i++ {
		if duals[i] <= duals[i-1] {
			t.Fatalf("dual value not strictly increasing: %v", duals)
		}
	}
	// D1(0) = m.
	if duals[0] != 4 {
		t.Fatalf("initial dual %g, want m = 4", duals[0])
	}
}

func TestBoundedUFPCriticalValue(t *testing.T) {
	unroutable := singleEdge(5, [2]float64{1, 1})
	unroutable.G.AddVertex() // vertex 2, isolated
	unroutable.Requests = append(unroutable.Requests, core.Request{Source: 0, Target: 2, Demand: 1, Value: 10})
	diamond := diamondInstance(10, [2]float64{1, 3}, [2]float64{1, 2}, [2]float64{1, 1})
	cases := []struct {
		name string
		inst *core.Instance
		opt  *core.Options
		r    int
		want float64
	}{
		// Request 1 wins the edge while its 1/v beats request 0's 1/1.
		{"contended edge", singleEdge(1, [2]float64{1, 1}, [2]float64{1, 2}), nil, 1, 1},
		// The value the loser would have needed: the same threshold.
		{"contended edge, loser", singleEdge(1, [2]float64{1, 1}, [2]float64{1, 2}), nil, 0, 2},
		// Everyone else routed below the threshold: r is last, at any value.
		{"all satisfied", diamond, nil, 0, 0},
		// The limit stops R₋ᵣ after the other two, so r has to beat
		// request 2's ratio 0.2 on the second path: d·L/ρ* = 0.2/0.2.
		{"iteration limit", diamond, &core.Options{MaxIterations: 2}, 0, 1},
		// The other request is unroutable: r is the only candidate.
		{"no routable path", unroutable, nil, 0, 0},
		// r itself is unroutable at every value.
		{"unroutable", unroutable, nil, 1, math.Inf(1)},
	}
	for _, c := range cases {
		got, err := core.BoundedUFPCriticalCtx(context.Background(), c.inst, 0.5, c.opt, c.r)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want && !(math.Abs(got-c.want) <= 1e-12*c.want) {
			t.Fatalf("%s: critical value of request %d = %.17g, want %g", c.name, c.r, got, c.want)
		}
		// The counterfactual run never reads r's own declared value.
		mod := c.inst.Clone()
		mod.Requests[c.r].Value *= 7
		if again, err := core.BoundedUFPCriticalCtx(context.Background(), mod, 0.5, c.opt, c.r); err != nil || again != got {
			t.Fatalf("%s: critical value moved with the declared value: %g vs %g (%v)", c.name, again, got, err)
		}
	}
	if _, err := core.BoundedUFPCriticalCtx(context.Background(), diamond, 0.5, nil, 3); err == nil {
		t.Fatal("out-of-range request accepted")
	}
}
