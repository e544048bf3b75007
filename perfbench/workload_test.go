package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"truthfulufp/internal/core"
	"truthfulufp/internal/scenario"
)

func TestSessionStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, err := newSessionStream(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSessionStream(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.hash() != b.hash() {
		t.Fatalf("same seed, different op streams: %s vs %s", a.hash(), b.hash())
	}
	for c := range a.ops {
		for i := range a.ops[c] {
			if a.ops[c][i] != b.ops[c][i] {
				t.Fatalf("conn %d op %d differs: %+v vs %+v", c, i, a.ops[c][i], b.ops[c][i])
			}
		}
	}
	other, err := newSessionStream(8)
	if err != nil {
		t.Fatal(err)
	}
	if other.hash() == a.hash() {
		t.Fatal("seeds 7 and 8 gave the same op stream")
	}

	var n [3]int
	for _, op := range a.ops[0] {
		n[op.kind]++
	}
	if share := float64(n[opAdmit]) / float64(len(a.ops[0])); math.Abs(share-shareAdmit) > 0.01 {
		t.Errorf("admit share %.3f, want %.2f", share, shareAdmit)
	}
	if share := float64(n[opQuote]) / float64(len(a.ops[0])); math.Abs(share-shareQuote) > 0.01 {
		t.Errorf("price share %.3f, want %.2f", share, shareQuote)
	}
}

func TestJobStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range []string{wlSolve, wlMech} {
		pools := func(seed uint64) []*jobStream {
			var streams []*jobStream
			for c := 0; c < conns; c++ {
				s, err := newJobStream(wl, seed, c)
				if err != nil {
					t.Fatal(err)
				}
				streams = append(streams, s)
			}
			return streams
		}
		a, b, other := pools(7), pools(7), pools(8)
		if hashJobStreams(wl, a) != hashJobStreams(wl, b) {
			t.Errorf("%s: same seed, different job streams", wl)
		}
		if hashJobStreams(wl, a) == hashJobStreams(wl, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same job stream", wl)
		}
		// Each whole round of the catalog takes one instance of every
		// family, and another seed reorders the same instances within it.
		fresh := func(s *jobStream) []scenario.Config {
			var out []scenario.Config
			for _, jb := range s.jobs {
				if jb.repeatOf < 0 {
					out = append(out, jb.cfg)
				}
			}
			return out
		}
		rounds := len(combos())
		for c := range a {
			opened := 0
			for _, jb := range a[c].jobs {
				if jb.opensRound {
					opened++
				}
			}
			if want := (len(fresh(a[c])) + rounds - 1) / rounds; opened != want {
				t.Errorf("%s conn %d: %d jobs open a round, want %d", wl, c, opened, want)
			}
			if !a[c].jobs[0].opensRound {
				t.Errorf("%s conn %d: the first job does not open a round", wl, c)
			}
			x, y := fresh(a[c]), fresh(other[c])
			for r := 0; r+rounds <= min(len(x), len(y)); r += rounds {
				count := map[scenario.Config]int{}
				families := map[[2]string]bool{}
				for k := r; k < r+rounds; k++ {
					count[x[k]]++
					count[y[k]]--
					families[[2]string{x[k].Topology, x[k].Demand}] = true
				}
				if len(families) != rounds {
					t.Fatalf("%s conn %d: the round from fresh job %d covers %d of %d families", wl, c, r, len(families), rounds)
				}
				for cfg, n := range count {
					if n != 0 {
						t.Fatalf("%s conn %d: the round from fresh job %d uses instance %+v %+d more times under seed 7 than under seed 8", wl, c, r, cfg, n)
					}
				}
			}
		}
	}
}

func TestSolveMixRepeatsHitEarlierOriginals(t *testing.T) {
	s, err := newJobStream(wlSolve, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for j, jb := range s.jobs {
		if jb.repeatOf < 0 {
			continue
		}
		repeats++
		if j-jb.repeatOf < repeatMinGap || s.jobs[jb.repeatOf].repeatOf >= 0 {
			t.Fatalf("job %d repeats job %d: too close or not an original", j, jb.repeatOf)
		}
		if string(jb.body) != string(s.jobs[jb.repeatOf].body) {
			t.Fatalf("job %d does not repeat job %d's body", j, jb.repeatOf)
		}
	}
	if share := float64(repeats) / float64(len(s.jobs)); math.Abs(share-1.0/repeatEvery) > 0.01 {
		t.Errorf("repeat share %.3f, want about 1/%d", share, repeatEvery)
	}
	// A later lap must miss the 1024-entry result cache as the first did:
	// the connections submit more distinct jobs than that between two
	// laps of one job.
	if fresh := conns * (len(s.jobs) - repeats); fresh <= 1024 {
		t.Errorf("%d distinct jobs between laps, want more than the cache's 1024", fresh)
	}
	if len(s.jobs) < solveQuality {
		t.Errorf("the pool of %d jobs is shorter than the quality prefix %d", len(s.jobs), solveQuality)
	}
}

func TestMechanismPoolLapsMissTheCacheInWholeRounds(t *testing.T) {
	if fresh := conns * mechPool; fresh <= 1024 {
		t.Errorf("%d distinct jobs between laps, want more than the cache's 1024", fresh)
	}
	if mechPool%len(combos()) != 0 {
		t.Errorf("the pool of %d jobs does not end on a round of the %d-family catalog", mechPool, len(combos()))
	}
}

// The bodies must carry exactly the generated numbers: the output
// checks compare the server's answers with solves of the generated
// instances.
func TestBodiesDecodeToTheGeneratedInstance(t *testing.T) {
	s, err := newJobStream(wlMech, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 24; j++ {
		jb := s.job(j)
		alg, got, err := decodeJob(jb.body)
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		if alg != "ufp/mechanism" || len(got.Requests) != mechRequests {
			t.Fatalf("job %d: algorithm %q with %d requests", j, alg, len(got.Requests))
		}
		want, err := scenario.Generate(jb.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameInstance(t, want, got)
	}
	if s.job(len(s.jobs)+3) != s.jobs[3] {
		t.Fatal("a pass does not cycle through the pool")
	}
}

func sameInstance(t *testing.T, want, got *core.Instance) {
	t.Helper()
	if want.G.Directed() != got.G.Directed() || want.G.NumVertices() != got.G.NumVertices() || want.G.NumEdges() != got.G.NumEdges() {
		t.Fatal("graph shape differs")
	}
	for e := 0; e < want.G.NumEdges(); e++ {
		if want.G.Edge(e) != got.G.Edge(e) {
			t.Fatalf("edge %d: %+v vs %+v", e, want.G.Edge(e), got.G.Edge(e))
		}
	}
	for i := range want.Requests {
		if want.Requests[i] != got.Requests[i] {
			t.Fatalf("request %d: %+v vs %+v", i, want.Requests[i], got.Requests[i])
		}
	}
}

func TestTailOfKeepsTenSamplesBeyond(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i)
	}
	got, pct := tailOf(v)
	if got != 989 || pct != 99 {
		t.Fatalf("tail of 0..999 = %v at p%v, want 989 at p99", got, pct)
	}
	if got, pct := tailOf(v[:5]); got != 4 || pct != 100 {
		t.Fatalf("tail of five samples = %v at p%v, want the maximum", got, pct)
	}
}

// BENCHMARK.json at the repository root declares the metrics this
// program prints; the two lists must agree name for name and unit for
// unit.
func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this module:", err)
	}
	var decl struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	// solve-mix runs by hand only (see README.md, Noise).
	if want := []string{wlSession, wlMech}; len(decl.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json declares %d workloads, want %v", len(decl.Workloads), want)
	} else {
		for i, w := range decl.Workloads {
			if w.Name != want[i] {
				t.Errorf("workload %d: declared %s, want %s", i, w.Name, want[i])
			}
		}
	}
}
