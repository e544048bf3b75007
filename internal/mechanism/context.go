package mechanism

import (
	"context"
	"fmt"

	"truthfulufp/internal/auction"
	"truthfulufp/internal/core"
	"truthfulufp/internal/pathfind"
)

// This file holds the v1 context-first entry points. A mechanism run is
// many algorithm runs (one allocation plus, per winner, one
// counterfactual run for Bounded-UFP or ~60 bisection probes for the
// other algorithms), so cancellation has two layers: the adapted
// algorithm carries the context into every run's main loop, and the
// mechanism driver additionally checks the context between winners'
// payment computations, covering algorithms that ignore contexts.

// ctxErr is a non-blocking done-check on an optional context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// BoundedUFPAlgCtx is BoundedUFPAlg carrying ctx into the allocation
// run and into every counterfactual run of its allocation's Critical
// (each run checks it once per main-loop iteration). A nil ctx adapts
// the plain, uncancellable call. See BoundedUFPAlg for the exact
// critical values and the tunings (shared scratch pool, adaptive
// single-target oracle, ALT landmarks) the adapter applies. The returned algorithm, and the Critical of its
// allocations, mutate adapter-local cache state and must be driven from
// one goroutine at a time — which is how the mechanism drivers call
// them.
func BoundedUFPAlgCtx(ctx context.Context, eps float64, opt *core.Options) UFPAlgorithm {
	pool := pathfind.NewPool()
	return func(inst *core.Instance) (*core.Allocation, error) {
		var o core.Options
		if opt != nil {
			o = *opt
		}
		if o.PathPool == nil {
			o.PathPool = pool
		}
		o.Adaptive = true
		if o.Landmarks == nil {
			// Every run of a mechanism — the allocation, the
			// counterfactual runs of its payments, the re-runs of a
			// misreport search — shares one frozen topology, and every
			// run's exponential prices start at the same floor 1/c_e, so
			// one landmark build serves them all. The shared registry
			// (fingerprinting topology + weight snapshot) additionally
			// shares the tables with every session and engine shard
			// serving the same network.
			g := inst.G
			o.Landmarks = pathfind.SharedLandmarks.Get(g, pathfind.DefaultLandmarkCount,
				func(e int) float64 { return 1 / g.Edge(e).Capacity }, false)
		}
		a, err := core.BoundedUFPCtx(ctx, inst, eps, &o)
		if err != nil {
			return nil, err
		}
		a.Critical = func(r int) (float64, error) {
			return core.BoundedUFPCriticalCtx(ctx, inst, eps, &o, r)
		}
		return a, nil
	}
}

// BoundedMUCAAlgCtx is BoundedMUCAAlg carrying ctx into every probe of
// a critical-value search. A nil ctx adapts the plain call.
func BoundedMUCAAlgCtx(ctx context.Context, eps float64, opt *auction.Options) AuctionAlgorithm {
	return func(inst *auction.Instance) (*auction.Allocation, error) {
		return auction.BoundedMUCACtx(ctx, inst, eps, opt)
	}
}

// RunUFPMechanismCtx is RunUFPMechanism under a context: the context is
// checked before each winner's critical-value computation, and the run
// is abandoned with the context's error when it is done. For
// cancellation to also reach mid-computation, build alg with
// BoundedUFPAlgCtx (or any adapter that carries the same context). The
// returned allocation's Critical is nil: a cached outcome must not pin
// the instance and the adapter's scratch pool.
func RunUFPMechanismCtx(ctx context.Context, alg UFPAlgorithm, inst *core.Instance) (*UFPOutcome, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("mechanism: cancelled before allocation: %w", err)
	}
	a, err := alg(inst)
	if err != nil {
		return nil, err
	}
	out := &UFPOutcome{Allocation: a, Payments: make(map[int]float64)}
	for _, p := range a.Routed {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("mechanism: cancelled before payment for request %d: %w", p.Request, err)
		}
		pay, err := criticalValue(alg, inst, a, p.Request)
		if err != nil {
			return nil, fmt.Errorf("mechanism: payment for request %d: %w", p.Request, err)
		}
		out.Payments[p.Request] = pay
	}
	a.Critical = nil
	return out, nil
}

// RunAuctionMechanismCtx is RunAuctionMechanism under a context,
// mirroring RunUFPMechanismCtx.
func RunAuctionMechanismCtx(ctx context.Context, alg AuctionAlgorithm, inst *auction.Instance) (*AuctionOutcome, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("mechanism: cancelled before allocation: %w", err)
	}
	a, err := alg(inst)
	if err != nil {
		return nil, err
	}
	out := &AuctionOutcome{Allocation: a, Payments: make(map[int]float64)}
	for _, r := range a.Selected {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("mechanism: cancelled before payment for request %d: %w", r, err)
		}
		pay, err := AuctionCriticalValue(alg, inst, r)
		if err != nil {
			return nil, fmt.Errorf("mechanism: payment for request %d: %w", r, err)
		}
		out.Payments[r] = pay
	}
	return out, nil
}
