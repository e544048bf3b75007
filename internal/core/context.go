package core

import "context"

// This file holds the v1 context-first entry points. Every solver in the
// package is callable as SomethingCtx(ctx, ...): the context is checked
// once per main-loop iteration (or per request for the single-pass
// baselines) and the run is abandoned with the context's error when it
// is done. The pre-v1 Options.Ctx shim has been removed — the context
// argument is the only cancellation channel; the plain spellings
// (SolveUFP, ...) are the same calls with no context.

// SolveUFPCtx is SolveUFP under a context (the v1 calling convention).
func SolveUFPCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	a, _, err := boundedUFPLoop(ctx, inst, eps/6, opt, false, -1)
	return a, err
}

// BoundedUFPCtx is BoundedUFP under a context.
func BoundedUFPCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	a, _, err := boundedUFPLoop(ctx, inst, eps, opt, false, -1)
	return a, err
}

// SolveUFPRepeatCtx is SolveUFPRepeat under a context.
func SolveUFPRepeatCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	a, _, err := boundedUFPLoop(ctx, inst, eps/6, opt, true, -1)
	return a, err
}

// BoundedUFPRepeatCtx is BoundedUFPRepeat under a context.
func BoundedUFPRepeatCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	a, _, err := boundedUFPLoop(ctx, inst, eps, opt, true, -1)
	return a, err
}

// SequentialPrimalDualCtx is SequentialPrimalDual under a context.
func SequentialPrimalDualCtx(ctx context.Context, inst *Instance, eps float64, opt *Options) (*Allocation, error) {
	return sequentialPrimalDual(ctx, inst, eps, opt)
}

// GreedyByDensityCtx is GreedyByDensity under a context.
func GreedyByDensityCtx(ctx context.Context, inst *Instance, opt *Options) (*Allocation, error) {
	return greedyByDensity(ctx, inst, opt)
}

// IterativePathMinCtx is IterativePathMin under a context.
func IterativePathMinCtx(ctx context.Context, inst *Instance, opt EngineOptions) (*Allocation, error) {
	return iterativePathMin(ctx, inst, opt)
}
