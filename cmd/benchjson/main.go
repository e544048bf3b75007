// Command benchjson measures the path-engine benchmark suite
// (internal/bench) with the standard testing harness and writes the
// snapshot consumed by `make bench-json`:
//
//	benchjson [-out BENCH_path.json] [-quick]
//	          [-baseline BENCH_path.json] [-max-regression 0.25]
//
// The snapshot maps benchmark name → {ns/op, allocs/op} and records the
// headline incremental-vs-full-recompute speedup on the waxman-1k
// scenario. -quick shrinks the instances for CI smoke runs (the
// committed BENCH_path.json is a full-size run).
//
// With -baseline, benchjson additionally acts as the CI trend gate
// (`make bench-trend`): after measuring, it compares the fresh
// IncrementalSolve speedup against the baseline snapshot and exits
// non-zero on a regression beyond -max-regression. Speedup ratios are
// machine-portable but scale-dependent, so the baseline must be the
// same -quick setting as the fresh run.
package main

import (
	"flag"
	"fmt"
	"os"

	"truthfulufp/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "BENCH_path.json", "output path, - for stdout")
	quick := fs.Bool("quick", false, "shrink instances for a fast smoke run")
	baseline := fs.String("baseline", "", "snapshot to gate against (fail on IncrementalSolve speedup regression)")
	maxRegression := fs.Float64("max-regression", 0.25, "tolerated fractional speedup regression vs -baseline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Load the baseline before measuring or writing anything: with the
	// default -out, -baseline may name the same file, and writing first
	// would clobber the committed baseline and gate the run against
	// itself.
	var base bench.Snapshot
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			return err
		}
		base, err = bench.ReadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	snap := bench.Run(bench.PathCases(*quick), *quick)
	for name, e := range snap.Benchmarks {
		fmt.Fprintf(os.Stderr, "%-40s %14.0f ns/op %8d allocs/op\n", name, e.NsPerOp, e.AllocsPerOp)
	}
	fmt.Fprintf(os.Stderr, "incremental speedup:   %.2fx\n", snap.IncrementalSpeedup)
	fmt.Fprintf(os.Stderr, "bottleneck speedup:    %.2fx\n", snap.BottleneckSpeedup)
	fmt.Fprintf(os.Stderr, "bellman speedup:       %.2fx\n", snap.BellmanSpeedup)
	fmt.Fprintf(os.Stderr, "single-target speedup: %.2fx\n", snap.SingleTargetSpeedup)
	fmt.Fprintf(os.Stderr, "session-admit speedup: %.2fx\n", snap.SessionAdmitSpeedup)
	if l := snap.SessionAdmitLatency; l != nil {
		fmt.Fprintf(os.Stderr, "session-admit latency: p50 %.3f / p99 %.3f / p999 %.3f ms (%d admits)\n",
			l.P50Ms, l.P99Ms, l.P999Ms, l.Count)
	}
	if err := write(*out, snap); err != nil {
		return err
	}
	if *baseline == "" {
		return nil
	}
	if err := bench.Compare(snap, base, *maxRegression); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trend gate: %.2fx vs baseline %.2fx (plus bottleneck/bellman/single-target ratios) within %.0f%% tolerance\n",
		snap.IncrementalSpeedup, base.IncrementalSpeedup, *maxRegression*100)
	return nil
}

func write(out string, snap bench.Snapshot) error {
	if out == "-" {
		return bench.WriteJSON(os.Stdout, snap)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(f, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
