package shard

import (
	"context"
	"sync"
	"testing"

	"truthfulufp/internal/engine"
	"truthfulufp/internal/workload"
)

func testJob(t testing.TB, seed uint64) engine.Job {
	t.Helper()
	inst, err := workload.RandomUFP(workload.NewRNG(seed), workload.DefaultUFPConfig())
	if err != nil {
		t.Fatal(err)
	}
	return engine.Job{Algorithm: "ufp/greedy", UFP: inst}
}

// TestRouterSingleShardPassThrough: the shim solves jobs and serves
// sessions under the engine's unprefixed ids.
func TestRouterSingleShardPassThrough(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	res, err := r.Do(context.Background(), testJob(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocation == nil {
		t.Fatal("no allocation")
	}
	inst := testJob(t, 7).UFP
	s, err := r.Register(inst.G, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != "n1" {
		t.Errorf("session id = %q, want %q", s.ID(), "n1")
	}
	if got, ok := r.Session(s.ID()); !ok || got.ID() != s.ID() {
		t.Errorf("Session(%q) lookup failed", s.ID())
	}
}

// TestRouterJobAffinity: the shim keeps the engine's result cache, so
// an identical resubmission is a cache hit.
func TestRouterJobAffinity(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	job := testJob(t, 2)
	if _, err := r.Do(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	res, err := r.Do(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("identical resubmission was not a cache hit")
	}
}

// TestRouterSessionAffinity: every registered id resolves to its own
// session, and an id the engine never issued does not resolve.
func TestRouterSessionAffinity(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	inst := testJob(t, 3).UFP
	for i := 0; i < 8; i++ {
		s, err := r.Register(inst.G, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := r.Session(s.ID()); !ok || got != s {
			t.Fatalf("Session(%q) did not return the registered session", s.ID())
		}
	}
	if _, ok := r.Session("bogus-id"); ok {
		t.Error("Session(bogus) reported ok")
	}
}

// TestRouterConcurrentRouting hammers jobs and session calls from many
// goroutines; run with -race this is the shim's data-race gate. Four
// goroutines keep at most four jobs in flight, which the default queue
// (four per worker) holds without shedding.
func TestRouterConcurrentRouting(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	inst := testJob(t, 4).UFP
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := r.Do(context.Background(), testJob(t, uint64(100+(w*8+i)%12))); err != nil {
					errs <- err
					return
				}
				s, err := r.Register(inst.G, 0.25)
				if err != nil {
					errs <- err
					return
				}
				r.Session(s.ID())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
