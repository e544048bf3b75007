// Command ufpbench regenerates the paper's evaluation artifacts: one
// report per experiment in DESIGN.md's index (E1-E9, F1), each printing
// the series its theorem or figure predicts.
//
// Usage:
//
//	ufpbench [-experiment all|E1|E2|...] [-scale 1.0] [-seeds 3] [-workers 0]
//
// The output of a full-scale run is recorded in EXPERIMENTS.md.
//
// With -load, ufpbench instead drives the concurrent solve engine with
// synthetic traffic and reports end-to-end throughput and latency:
//
//	ufpbench -load [-shape closed|open] [-jobs 200] [-concurrency 16]
//	         [-rate 200] [-dup 0.3] [-alg ufp/bounded] [-eps 0.25]
//	         [-workers 0] [-seed 1] [-scenario fattree] [-demand gravity]
//	         [-corpus dir] [-targets http://a:8080,http://b:8080]
//	ufpbench -algs
//
// Closed-loop traffic keeps -concurrency jobs in flight (peak
// throughput); open-loop traffic is a Poisson stream at -rate jobs/sec
// (queueing latency). -dup is the fraction of repeated instances, which
// exercises the engine's result cache. -alg names any UFP-consuming
// algorithm of the v1 solver registry (-algs lists the whole registry;
// -kind remains as the legacy spelling of the same flag). In load mode
// -workers sets the engine's inter-job worker count. With -scenario the
// stream draws
// instances from the scenario catalog (see ufpgen -list) instead of
// uniform random graphs; with -corpus it replays the instance files of
// a ufpgen -corpus directory round-robin (in sorted filename order), so
// a recorded corpus doubles as a reproducible load-test fixture. With
// -targets the same stream drives one or more running ufpserve
// processes over HTTP (round-robin across the base URLs) instead of an
// in-process engine; a 429 from a shedding server counts toward the
// reported shed rate, not as a failure, and the latency profile covers
// served jobs only.
//
// With -session, ufpbench exercises the stateful session layer the way
// a persistent client would: register the network once, then stream
// every request as one admit, reporting per-admit latency and the
// speedup over the stateless alternative (a full batch solve per
// request):
//
//	ufpbench -session [-scenario waxman] [-demand gravity] [-seed 1]
//	         [-eps 0.25] [-in instance.json] [-resolve-samples 3]
//
// -in streams a recorded instance file (e.g. ufpgen output) instead of
// generating a scenario; -resolve-samples sets how many full batch
// solves are timed for the comparison baseline.
//
// In experiment mode -scenario restricts the S1 catalog sweep to one
// topology family.
//
// Every mode accepts -cpuprofile and -memprofile, which write pprof
// profiles of the run (CPU for its whole duration, heap at exit) for
// `go tool pprof`.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"truthfulufp"
	"truthfulufp/internal/cliio"
	"truthfulufp/internal/core"
	"truthfulufp/internal/engine"
	"truthfulufp/internal/experiments"
	"truthfulufp/internal/metrics"
	"truthfulufp/internal/scenario"
	"truthfulufp/internal/session"
	"truthfulufp/internal/solver"
	"truthfulufp/internal/stats"
	"truthfulufp/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ufpbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ufpbench", flag.ContinueOnError)
	var (
		which   = fs.String("experiment", "all", "experiment ID (E1..E9, F1) or 'all'")
		scale   = fs.Float64("scale", 1, "workload scale in (0,1]")
		seeds   = fs.Int("seeds", 3, "random instances per configuration point")
		workers = fs.Int("workers", 0, "solver parallelism; with -load, engine workers (0 = GOMAXPROCS)")
		list    = fs.Bool("list", false, "list experiments and exit")
		quiet   = fs.Bool("quiet", false, "suppress per-experiment timing lines")
		csvDir  = fs.String("csv", "", "also write each table as CSV into this directory")

		load        = fs.Bool("load", false, "run the engine load generator instead of experiments")
		scen        = fs.String("scenario", "", "scenario topology: load-mode instance source / S1 experiment filter (see ufpgen -list)")
		demand      = fs.String("demand", "", "load: scenario demand model (with -scenario; default gravity)")
		corpus      = fs.String("corpus", "", "load: replay instances from this ufpgen -corpus directory instead of generating")
		shape       = fs.String("shape", "closed", "load traffic shape: closed|open")
		jobs        = fs.Int("jobs", 200, "load: total jobs to submit")
		concurrency = fs.Int("concurrency", 16, "load: closed-loop jobs in flight")
		rate        = fs.Float64("rate", 200, "load: open-loop arrival rate (jobs/sec)")
		dup         = fs.Float64("dup", 0.3, "load: fraction of repeated instances in [0,1)")
		alg         = fs.String("alg", "", "load: registry algorithm name (UFP-consuming; see -algs; supersedes -kind)")
		algs        = fs.Bool("algs", false, "list the registered algorithms and exit")
		kind        = fs.String("kind", "", "load: legacy spelling of -alg (default ufp/bounded)")
		eps         = fs.Float64("eps", 0.25, "load/session: accuracy parameter ε")
		seed        = fs.Uint64("seed", 1, "load/session: RNG seed")
		targets     = fs.String("targets", "", "load: comma-separated ufpserve base URLs to drive over HTTP instead of an in-process engine (round-robin per job; 429s count as shed)")

		session  = fs.Bool("session", false, "stream admits through a persistent session instead of experiments")
		inPath   = fs.String("in", "", "session: stream this instance file (ufpgen output) instead of generating -scenario")
		size     = fs.Int("size", 0, "session: scenario vertex count (0 = topology default; 1000 = the waxman-1k target)")
		requests = fs.Int("requests", 0, "session: scenario request count (0 = topology default)")
		resolves = fs.Int("resolve-samples", 3, "session: timed full-solve samples for the stateless comparison")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ufpbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ufpbench: memprofile:", err)
			}
		}()
	}
	if *algs {
		cliio.PrintAlgorithms(out, nil)
		return nil
	}
	if *session {
		if *load {
			return fmt.Errorf("-session and -load are mutually exclusive")
		}
		return runSession(out, sessionBenchConfig{
			scenario: *scen, demand: *demand, in: *inPath,
			size: *size, requests: *requests,
			eps: *eps, seed: *seed, resolves: *resolves,
		})
	}
	if *inPath != "" || *size != 0 || *requests != 0 {
		return fmt.Errorf("-in/-size/-requests only apply with -session")
	}
	if *load {
		algorithm := *alg
		if algorithm == "" {
			algorithm = *kind
		} else if *kind != "" && *kind != algorithm {
			return fmt.Errorf("-alg %q contradicts -kind %q", algorithm, *kind)
		}
		if algorithm == "" {
			algorithm = "ufp/bounded"
		}
		var urls []string
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		return runLoad(out, loadConfig{
			shape: *shape, jobs: *jobs, concurrency: *concurrency, rate: *rate,
			dup: *dup, alg: algorithm, eps: *eps, seed: *seed,
			workers: *workers, scenario: *scen, demand: *demand, corpus: *corpus,
			targets: urls,
		})
	}
	if *targets != "" {
		return fmt.Errorf("-targets only applies with -load")
	}
	if *alg != "" || *kind != "" {
		return fmt.Errorf("-alg/-kind only apply with -load")
	}
	if *demand != "" {
		return fmt.Errorf("-demand only applies with -load -scenario or -session")
	}
	if *corpus != "" {
		return fmt.Errorf("-corpus only applies with -load")
	}
	runners := experiments.All()
	if *list {
		for _, r := range runners {
			fmt.Fprintf(out, "%-4s %s\n", r.ID, r.Title)
		}
		return nil
	}
	cfg := experiments.Config{Scale: *scale, Seeds: *seeds, Workers: *workers, Scenario: *scen}
	ran := 0
	for _, r := range runners {
		if *which != "all" && !strings.EqualFold(*which, r.ID) {
			continue
		}
		start := time.Now()
		rep, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s failed: %w", r.ID, err)
		}
		fmt.Fprint(out, rep.String())
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, rep); err != nil {
				return err
			}
		}
		if !*quiet {
			fmt.Fprintf(out, "(%s completed in %v)\n", r.ID, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintln(out)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (use -list)", *which)
	}
	return nil
}

// loadConfig parameterizes the engine load generator.
type loadConfig struct {
	shape       string
	jobs        int
	concurrency int
	rate        float64
	dup         float64
	alg         string // solver registry name (UFP-consuming)
	eps         float64
	seed        uint64
	workers     int
	scenario    string   // catalog topology ("" = uniform random instances)
	demand      string   // catalog demand model (with scenario)
	corpus      string   // directory of instance files to replay ("" = generate)
	targets     []string // ufpserve base URLs (nil = in-process engine)
}

// runLoad drives an in-process engine with a synthetic job stream and
// prints end-to-end throughput plus client-side latency.
func runLoad(out io.Writer, cfg loadConfig) error {
	s, ok := solver.Lookup(cfg.alg)
	if !ok {
		return fmt.Errorf("load: unknown algorithm %q (use -algs to list)", cfg.alg)
	}
	if !s.Kind().IsUFP() {
		return fmt.Errorf("load: algorithm %q does not consume UFP instances", cfg.alg)
	}
	shape, err := workload.ParseTrafficShape(cfg.shape)
	if err != nil {
		return err
	}
	tc := workload.TrafficConfig{
		Shape: shape, Jobs: cfg.jobs, Concurrency: cfg.concurrency,
		Rate: cfg.rate, DupFraction: cfg.dup,
		Instance: workload.DefaultUFPConfig(),
	}
	switch {
	case cfg.corpus != "":
		if cfg.scenario != "" || cfg.demand != "" {
			return fmt.Errorf("load: -corpus replays recorded instances; it excludes -scenario/-demand")
		}
		instances, err := loadCorpus(cfg.corpus)
		if err != nil {
			return err
		}
		tc.Source, err = workload.ReplaySource(instances)
		if err != nil {
			return err
		}
	case cfg.scenario != "":
		// Each fresh job is the scenario at a stream-drawn seed, so the
		// whole stream stays deterministic in -seed.
		tc.Source = func(rng *rand.Rand) (*core.Instance, error) {
			return scenario.Generate(scenario.Config{
				Topology: cfg.scenario, Demand: cfg.demand, Seed: rng.Uint64(),
			})
		}
	case cfg.demand != "":
		return fmt.Errorf("load: -demand requires -scenario")
	}
	rng := workload.NewRNG(cfg.seed)
	stream, err := workload.UFPStream(rng, tc)
	if err != nil {
		return err
	}
	gaps, err := workload.Arrivals(rng, tc)
	if err != nil {
		return err
	}

	// In-process mode keeps the engine's queue blocking: the generator
	// itself is the only client, so pushing back on it beats shedding.
	// Target mode drives real ufpserve processes over HTTP, where a 429
	// is the datum — it counts as shed, never as an error.
	var e *engine.Engine
	var doJob func(ctx context.Context, i int) (shed bool, err error)
	if len(cfg.targets) == 0 {
		e = engine.New(engine.Config{Workers: cfg.workers, BlockOnFull: true})
		defer e.Close()
		doJob = func(ctx context.Context, i int) (bool, error) {
			_, err := e.Do(ctx, engine.Job{Algorithm: cfg.alg, Eps: cfg.eps, UFP: stream[i]})
			return false, err
		}
	} else {
		// Bodies are marshalled up front so the measured latency is the
		// serving path, not client-side JSON encoding.
		bodies := make([][]byte, len(stream))
		enc := map[*core.Instance][]byte{} // dup jobs share the instance pointer
		for i, inst := range stream {
			if b, ok := enc[inst]; ok {
				bodies[i] = b
				continue
			}
			raw, err := truthfulufp.MarshalInstance(inst)
			if err != nil {
				return err
			}
			b, err := json.Marshal(map[string]any{
				"algorithm": cfg.alg, "eps": cfg.eps, "instance": json.RawMessage(raw),
			})
			if err != nil {
				return err
			}
			enc[inst], bodies[i] = b, b
		}
		client := &http.Client{Timeout: 5 * time.Minute}
		doJob = func(ctx context.Context, i int) (bool, error) {
			url := cfg.targets[i%len(cfg.targets)] + "/v1/solve"
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(bodies[i]))
			if err != nil {
				return false, err
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err != nil {
				return false, err
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				return false, nil
			case http.StatusTooManyRequests:
				return true, nil
			default:
				return false, fmt.Errorf("target %s: status %d", url, resp.StatusCode)
			}
		}
	}
	ctx := context.Background()
	latencies := make([]float64, len(stream)) // client-observed seconds, served jobs only
	hist := metrics.NewHistogram(metrics.DefLatencyBuckets)
	errs := make([]error, len(stream))
	shed := make([]bool, len(stream))
	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		start := time.Now()
		s, err := doJob(ctx, i)
		if shed[i] = s; s {
			return // a fast 429 would distort the serving-latency profile
		}
		latencies[i] = time.Since(start).Seconds()
		hist.Observe(latencies[i])
		errs[i] = err
	}
	var sem chan struct{}
	if shape == workload.ClosedLoop {
		sem = make(chan struct{}, cfg.concurrency)
	}
	wallStart := time.Now()
	next := wallStart // open loop: absolute deadlines, so sleep overshoot cannot accumulate
	for i := range stream {
		wg.Add(1)
		if shape == workload.ClosedLoop {
			sem <- struct{}{}
			go func(i int) { defer func() { <-sem }(); submit(i) }(i)
		} else {
			next = next.Add(gaps[i])
			time.Sleep(time.Until(next))
			go submit(i)
		}
	}
	wg.Wait()
	wall := time.Since(wallStart)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("load: job %d: %w", i, err)
		}
	}

	served := make([]float64, 0, len(stream))
	shedCount := 0
	for i := range stream {
		if shed[i] {
			shedCount++
		} else {
			served = append(served, latencies[i])
		}
	}
	var lat stats.Summary
	lat.AddAll(served)
	source := "random"
	switch {
	case cfg.corpus != "":
		source = "corpus " + cfg.corpus
	case cfg.scenario != "":
		source = "scenario " + cfg.scenario
		if cfg.demand != "" {
			source += "/" + cfg.demand
		}
	}
	if len(cfg.targets) == 0 {
		snap := e.Snapshot()
		fmt.Fprintf(out, "engine load: %d jobs (%s), %s loop, %d workers, alg %s, dup %.2f\n",
			cfg.jobs, source, shape, snap.Workers, cfg.alg, cfg.dup)
	} else {
		fmt.Fprintf(out, "cluster load: %d jobs (%s), %s loop, %d targets, alg %s, dup %.2f\n",
			cfg.jobs, source, shape, len(cfg.targets), cfg.alg, cfg.dup)
	}
	fmt.Fprintf(out, "  wall time        %v\n", wall.Round(time.Millisecond))
	fmt.Fprintf(out, "  throughput       %.1f jobs/sec\n", float64(len(served))/wall.Seconds())
	hs := hist.Snapshot()
	fmt.Fprintf(out, "  latency mean     %.3f ms\n", lat.Mean()*1e3)
	fmt.Fprintf(out, "  latency p50/p95  %.3f / %.3f ms\n",
		hs.Quantile(0.5)*1e3, hs.Quantile(0.95)*1e3)
	fmt.Fprintf(out, "  latency p99/p999 %.3f / %.3f ms\n",
		hs.Quantile(0.99)*1e3, hs.Quantile(0.999)*1e3)
	fmt.Fprintf(out, "  latency max      %.3f ms\n", lat.Max()*1e3)
	if len(cfg.targets) == 0 {
		snap := e.Snapshot()
		fmt.Fprintf(out, "  executions       %d (cache hits %d, coalesced %d)\n",
			snap.Completed, snap.CacheHits, snap.Coalesced)
	} else {
		fmt.Fprintf(out, "  shed             %d/%d (%.1f%% answered 429)\n",
			shedCount, cfg.jobs, 100*float64(shedCount)/float64(cfg.jobs))
	}
	return nil
}

// sessionBenchConfig parameterizes the session streaming benchmark.
type sessionBenchConfig struct {
	scenario string // catalog topology ("" = waxman)
	demand   string // catalog demand model
	in       string // instance file to replay ("" = generate)
	size     int    // scenario vertex count (0 = topology default)
	requests int    // scenario request count (0 = topology default)
	eps      float64
	seed     uint64
	resolves int // timed full-solve samples for the stateless baseline
}

// runSession measures the stateful session layer end to end: register
// the instance's network once, stream every request as one admit, and
// compare per-admit latency against the stateless alternative — the
// full batch online solve a session-less client re-runs per request.
func runSession(out io.Writer, cfg sessionBenchConfig) error {
	var inst *core.Instance
	var source string
	switch {
	case cfg.in != "":
		if cfg.scenario != "" || cfg.demand != "" || cfg.size != 0 || cfg.requests != 0 {
			return fmt.Errorf("session: -in replays a recorded instance; it excludes -scenario/-demand/-size/-requests")
		}
		data, err := os.ReadFile(cfg.in)
		if err != nil {
			return err
		}
		if inst, err = truthfulufp.UnmarshalInstance(data); err != nil {
			return fmt.Errorf("session: instance file %s: %w", cfg.in, err)
		}
		source = "file " + cfg.in
	default:
		topo := cfg.scenario
		if topo == "" {
			topo = "waxman"
		}
		var err error
		inst, err = scenario.Generate(scenario.Config{
			Topology: topo, Demand: cfg.demand, Seed: cfg.seed,
			Size: cfg.size, Requests: cfg.requests,
		})
		if err != nil {
			return err
		}
		source = "scenario " + topo
		if cfg.demand != "" {
			source += "/" + cfg.demand
		}
	}
	if len(inst.Requests) == 0 {
		return fmt.Errorf("session: instance has no requests to stream")
	}

	mgr := session.NewManager(session.Config{})
	regStart := time.Now()
	sess, err := mgr.Register(inst.G, cfg.eps)
	if err != nil {
		return err
	}
	regElapsed := time.Since(regStart)

	latencies := make([]float64, len(inst.Requests)) // per-admit seconds
	hist := metrics.NewHistogram(metrics.DefLatencyBuckets)
	admitted := 0
	var value float64
	for i, r := range inst.Requests {
		start := time.Now()
		d, err := sess.Admit(r)
		latencies[i] = time.Since(start).Seconds()
		hist.Observe(latencies[i])
		if err != nil {
			return fmt.Errorf("session: admit %d: %w", i, err)
		}
		if d.Admitted {
			admitted++
			value += r.Value
		}
	}
	info, err := sess.Info()
	if err != nil {
		return err
	}

	// The stateless comparison: a client without a session pays one full
	// batch solve per request to reach the same admission state.
	var resolve stats.Summary
	for i := 0; i < cfg.resolves; i++ {
		start := time.Now()
		if _, err := core.OnlineAdmission(inst, cfg.eps, nil); err != nil {
			return fmt.Errorf("session: full resolve: %w", err)
		}
		resolve.Add(time.Since(start).Seconds())
	}

	var lat stats.Summary
	lat.AddAll(latencies)
	fmt.Fprintf(out, "session stream: %d requests (%s), eps %.3g, %d vertices / %d edges\n",
		len(inst.Requests), source, cfg.eps, info.Vertices, info.Edges)
	fmt.Fprintf(out, "  register           %v\n", regElapsed.Round(time.Microsecond))
	fmt.Fprintf(out, "  admitted           %d/%d (value %.4g)\n", admitted, len(inst.Requests), value)
	hs := hist.Snapshot()
	fmt.Fprintf(out, "  admit mean         %.3f ms\n", lat.Mean()*1e3)
	fmt.Fprintf(out, "  admit p50/p95      %.3f / %.3f ms\n",
		hs.Quantile(0.5)*1e3, hs.Quantile(0.95)*1e3)
	fmt.Fprintf(out, "  admit p99/p999     %.3f / %.3f ms\n",
		hs.Quantile(0.99)*1e3, hs.Quantile(0.999)*1e3)
	fmt.Fprintf(out, "  admit max          %.3f ms\n", lat.Max()*1e3)
	fmt.Fprintf(out, "  path cache         %d reused / %d recomputed\n", info.PathReused, info.PathRecomputed)
	if info.OracleSearches > 0 {
		fmt.Fprintf(out, "  path oracle        %d searches, %.1f%% pruned vs full tree\n",
			info.OracleSearches, info.OraclePruneRatio*100)
	}
	if info.PolicyTree+info.PolicySingle > 0 {
		fmt.Fprintf(out, "  refresh policy     %d tree / %d single decisions\n",
			info.PolicyTree, info.PolicySingle)
	}
	if resolve.N() > 0 {
		fmt.Fprintf(out, "  full resolve mean  %.3f ms (%d samples)\n", resolve.Mean()*1e3, resolve.N())
		if lat.Mean() > 0 {
			fmt.Fprintf(out, "  speedup            %.1fx per admit vs stateless full resolve\n",
				resolve.Mean()/lat.Mean())
		}
	}
	return nil
}

// loadCorpus reads every instance file of a ufpgen -corpus directory
// (the *.json files; manifest.txt is skipped) in sorted filename order,
// so replay order is stable across runs and machines. Graphs are frozen
// on load: the solve path never pays the CSR build.
func loadCorpus(dir string) ([]*core.Instance, error) {
	// os.ReadDir rather than filepath.Glob: a corpus path containing
	// glob metacharacters ("runs[1]") must not be treated as a pattern.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	instances := make([]*core.Instance, 0, len(names))
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		inst, err := truthfulufp.UnmarshalInstance(data)
		if err != nil {
			return nil, fmt.Errorf("load: corpus file %s: %w", name, err)
		}
		inst.G.Freeze()
		instances = append(instances, inst)
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("load: corpus directory %s has no *.json instances", dir)
	}
	return instances, nil
}

// writeCSVs dumps every table of the report as <dir>/<id>_<table>.csv.
func writeCSVs(dir string, rep *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, tab := range rep.Tables {
		name := fmt.Sprintf("%s_%s.csv", strings.ToLower(rep.ID), tab.CSVName())
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := tab.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
