package mechanism

import (
	"math"
	"testing"

	"truthfulufp/internal/core"
	"truthfulufp/internal/scenario"
	"truthfulufp/internal/workload"
)

// bisectionAlg is BoundedUFPAlg with the exact critical value taken
// off its allocations, so the mechanism drivers bisect: the reference
// the exact values are checked against.
func bisectionAlg(eps float64) UFPAlgorithm {
	alg := BoundedUFPAlg(eps, nil)
	return func(inst *core.Instance) (*core.Allocation, error) {
		a, err := alg(inst)
		if a != nil {
			a.Critical = nil
		}
		return a, err
	}
}

// contendedConfig draws small instances inside Bounded-UFP's operating
// range at ε = 0.5: B = 8 >= 1 + ln(m)/ε, so the initial dual Σc·y = m
// sits below the threshold e^{ε(B-1)}, and (from ~20 requests on) more
// demand than the network carries, so the threshold stops the run with
// requests left over and winners pay a positive critical value.
func contendedConfig(requests int) workload.UFPConfig {
	return workload.UFPConfig{
		Vertices: 6, Edges: 14, Requests: requests, Directed: true,
		B: 8, CapSpread: 0.4,
		DemandMin: 0.3, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
}

const contendedEps = 0.5

// checkCriticalAgreement compares every winner's exact critical value
// with bisection, within CriticalPrecision of the declared value, and
// checks that each positive one is the selection threshold: the winner
// is selected just above it and dropped just below it. It returns the
// number of winners and of positive payments.
func checkCriticalAgreement(t testing.TB, name string, inst *core.Instance, eps float64) (winners, paying int) {
	t.Helper()
	exact := BoundedUFPAlg(eps, nil)
	bisect := bisectionAlg(eps)
	out, err := RunUFPMechanism(exact, inst)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if out.Allocation.Critical != nil {
		t.Fatalf("%s: RunUFPMechanism returned an allocation still carrying Critical", name)
	}
	for r, crit := range out.Payments {
		v := inst.Requests[r].Value
		ref, err := UFPCriticalValue(bisect, inst, r)
		if err != nil {
			t.Fatalf("%s: bisection for request %d: %v", name, r, err)
		}
		if math.Abs(crit-ref) > CriticalPrecision*v {
			t.Fatalf("%s: request %d (v=%g): exact critical value %.17g, bisection %.17g", name, r, v, crit, ref)
		}
		winners++
		if crit <= 0 {
			continue
		}
		paying++
		for _, c := range []struct {
			scale float64
			want  bool
		}{{1 + 1e-6, true}, {1 - 1e-6, false}} {
			sel, err := ufpSelectedAt(exact, inst, r, crit*c.scale)
			if err != nil {
				t.Fatal(err)
			}
			if sel != c.want {
				t.Fatalf("%s: request %d with critical value %.17g: selected at %g×crit = %v, want %v", name, r, crit, c.scale, sel, c.want)
			}
		}
	}
	return winners, paying
}

func TestCriticalValueMatchesBisection(t *testing.T) {
	// The hand-computable case: request 1 wins while 1/v beats request
	// 0's 1/2, so its critical value is exactly 2.
	inst := contendedInstance()
	pay, err := UFPCriticalValue(BoundedUFPAlg(0.5, nil), inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pay != 2 {
		t.Fatalf("exact critical value = %.17g, want 2", pay)
	}
	checkCriticalAgreement(t, "contendedInstance", inst, 0.5)

	// The catalog families at the mechanism workload's size: their
	// capacities are sized for ε = 0.25, so every winner pays 0.
	for _, topo := range scenario.Topologies() {
		for _, dem := range scenario.Demands() {
			cfg := scenario.Config{Topology: topo.Name, Demand: dem.Name, Requests: 12, Seed: 1}
			inst, err := scenario.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w, _ := checkCriticalAgreement(t, topo.Name+"/"+dem.Name, inst, 0.25); w == 0 {
				t.Fatalf("%s/%s: no winners", topo.Name, dem.Name)
			}
		}
	}

	// Contended random instances, where payments are positive.
	paying := 0
	for seed := uint64(0); seed < 3; seed++ {
		inst, err := workload.RandomUFP(workload.NewRNG(seed+90), contendedConfig(30))
		if err != nil {
			t.Fatal(err)
		}
		_, p := checkCriticalAgreement(t, "contended", inst, contendedEps)
		paying += p
	}
	if paying == 0 {
		t.Fatal("vacuous: no contended winner pays a positive critical value")
	}
}

// FuzzCriticalValue: on small random contended instances, every Bounded-
// UFP winner's exact critical value agrees with bisection and is the
// selection threshold. The fuzz inputs seed the generator and pick the
// request count, the graph size, the capacity floor B (around the
// 1 + ln(m)/ε at which the dual threshold admits a first iteration) and
// ε.
func FuzzCriticalValue(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(0), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(9), uint8(3), uint8(0), uint8(2))
	f.Add(uint64(42), uint8(2), uint8(1), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n, size, b, e uint8) {
		eps := []float64{0.3, 0.5, 0.7}[e%3]
		cfg := contendedConfig(1 + int(n%24))
		cfg.Vertices = 4 + int(size%4)
		cfg.Edges = 2*cfg.Vertices + int(size%7)
		cfg.B = 1 + math.Log(float64(cfg.Edges))/eps + float64(b%4)
		inst, err := workload.RandomUFP(workload.NewRNG(seed), cfg)
		if err != nil {
			t.Skip(err)
		}
		checkCriticalAgreement(t, "fuzz", inst, eps)
	})
}
