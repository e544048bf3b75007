# Mirrors .github/workflows/ci.yml so contributors run the same checks
# locally that gate a PR.

GO ?= go

.PHONY: all build test bench bench-json bench-trend fuzz-smoke serve fmt vet perfbench-check ci smoke smoke-session smoke-metrics smoke-cluster

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Execute every benchmark's code path once (the CI smoke step; -short
# shrinks the waxman-1k path-engine instances). For real measurements
# use e.g.:
#   go test -bench=BenchmarkEngineThroughput -benchtime=2s -run='^$$' .
bench:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' ./...

# Measure the path-engine suite and snapshot it as BENCH_path.json
# (benchmark name -> ns/op, allocs/op, plus the incremental-vs-full
# speedup). CI runs `make bench-json BENCHJSON_FLAGS=-quick` as a smoke
# step; commit full-size snapshots to track the perf trajectory.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_path.json $(BENCHJSON_FLAGS)

# Benchmark trend gate (the CI step): measure the full-size path suite
# into a throwaway snapshot and fail on a >25% regression of any
# derived speedup (IncrementalSolve, IncrementalBottleneck,
# IncrementalBellman, SingleTarget, Landmark, Bidirectional,
# BottleneckSingleTarget, LandmarkRebuild, AuctionReasonable,
# SessionAdmit) relative to the committed
# BENCH_path.json, and on a missing or never-shedding cluster serving
# pass (cluster_serve). Speedup ratios and the shed contract are
# machine-portable; absolute ns/op are not.
bench-trend:
	$(GO) run ./cmd/benchjson -out /tmp/BENCH_path_fresh.json -baseline BENCH_path.json -max-regression 0.25

# Short native-fuzz passes over the path engine's canonical tie-break
# invariants (the CI step): leximax bottleneck tree properties, the
# ALT/bidirectional oracle's bit-identity to the plain search, and the
# goal-directed bottleneck search's bit-identity to the plain leximax
# search and full tree, each against fresh randomly generated (graph,
# weights, bump-sequence) triples. Go allows one -fuzz target per
# invocation, hence three runs.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzBottleneckLeximax$$' -fuzztime=10s ./internal/pathfind/
	$(GO) test -run='^$$' -fuzz='^FuzzLandmarkOracle$$' -fuzztime=10s ./internal/pathfind/
	$(GO) test -run='^$$' -fuzz='^FuzzBottleneckALT$$' -fuzztime=10s ./internal/pathfind/

serve:
	$(GO) run ./cmd/ufpserve

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# perfbench is its own module (it lies outside ./...), so vet and test
# it separately: an API change that breaks the end-to-end benchmark
# fails here instead of at the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Scenario determinism + generator->solver pipeline, as CI runs them.
# SHELLFLAGS adds pipefail so a generator failure cannot hide behind the
# downstream consumer's exit status.
smoke: SHELL := /bin/bash
smoke: .SHELLFLAGS := -o pipefail -c
smoke:
	$(GO) run ./cmd/ufpgen -hashes -seeds 2 > /tmp/corpus-hashes-1.txt
	$(GO) run ./cmd/ufpgen -hashes -seeds 2 > /tmp/corpus-hashes-2.txt
	diff -u /tmp/corpus-hashes-1.txt /tmp/corpus-hashes-2.txt
	$(GO) run ./cmd/ufpgen -scenario fattree -seed 7 | $(GO) run ./cmd/ufprun -in - -json > /dev/null
	@echo "scenario determinism + pipeline smoke: ok"

# Session pipeline smoke (the CI step): generate a scenario instance
# with ufpgen, then register its network and stream every request
# through the stateful session layer via ufpbench -session, which
# reports per-admit latency and the speedup over a stateless full
# solve per request.
smoke-session:
	$(GO) run ./cmd/ufpgen -scenario fattree -seed 7 -o /tmp/session-smoke.json
	$(GO) run ./cmd/ufpbench -session -in /tmp/session-smoke.json

# Observability smoke (the CI step): start ufpserve, drive one request
# through each instrumented subsystem — register + admit for the
# session layer, the same solve twice for an engine cache hit, and 40
# admits on a 64-vertex path network, which gets auto-built landmark
# tables — then assert /metrics exposes non-zero counters for the http,
# session, engine-cache, and path-oracle subsystems, and exactly zero
# landmark rebuilds (monotone prices never violate the tables' bounds).
# One shell invocation so the EXIT trap always reaps the background
# server.
smoke-metrics: SHELL := /bin/bash
smoke-metrics: .SHELLFLAGS := -o pipefail -c
smoke-metrics:
	$(GO) build -o /tmp/ufpserve-smoke ./cmd/ufpserve
	/tmp/ufpserve-smoke -addr 127.0.0.1:18080 & \
	trap 'kill $$! 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf 127.0.0.1:18080/v1/readyz > /dev/null && break; sleep 0.1; \
	done; \
	id=$$(curl -sf 127.0.0.1:18080/v1/networks \
		-d '{"eps":0.25,"network":{"directed":true,"vertices":2,"edges":[{"from":0,"to":1,"capacity":30}]}}' \
		| grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4); \
	test -n "$$id"; \
	curl -sf 127.0.0.1:18080/v1/networks/$$id/admit \
		-d '{"source":0,"target":1,"demand":1,"value":2}' | grep -q '"admitted":true'; \
	solve='{"algorithm":"ufp/solve","eps":0.25,"instance":{"directed":true,"vertices":2,"edges":[{"from":0,"to":1,"capacity":30}],"requests":[{"source":0,"target":1,"demand":1,"value":2}]}}'; \
	curl -sf 127.0.0.1:18080/v1/solve -d "$$solve" > /dev/null; \
	curl -sf 127.0.0.1:18080/v1/solve -d "$$solve" | grep -q '"cacheHit":true'; \
	edges=$$(for i in $$(seq 0 62); do printf '{"from":%d,"to":%d,"capacity":30},' $$i $$((i+1)); done); \
	big=$$(curl -sf 127.0.0.1:18080/v1/networks \
		-d '{"eps":0.25,"network":{"directed":true,"vertices":64,"edges":['"$${edges%,}"']}}' \
		| grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4); \
	test -n "$$big"; \
	for i in $$(seq 1 40); do \
		curl -sf 127.0.0.1:18080/v1/networks/$$big/admit \
			-d '{"source":0,"target":63,"demand":0.01,"value":1000000}' > /dev/null; \
	done; \
	curl -sf 127.0.0.1:18080/metrics > /tmp/metrics-smoke.txt; \
	grep -Eq '^ufp_http_requests_total\{.*\} [0-9]*[1-9]' /tmp/metrics-smoke.txt; \
	grep -Eq '^ufp_session_admits_total [0-9]*[1-9]' /tmp/metrics-smoke.txt; \
	grep -Eq '^ufp_engine_cache_hits_total [0-9]*[1-9]' /tmp/metrics-smoke.txt; \
	grep -Eq '^ufp_pathcache_oracle_searches [0-9]*[1-9]' /tmp/metrics-smoke.txt; \
	grep -q '^ufp_pathcache_landmark_rebuilds_total 0$$' /tmp/metrics-smoke.txt; \
	grep -Eq '^ufp_pathcache_landmark_registry_lookups_total\{result="miss"\} [0-9]*[1-9]' /tmp/metrics-smoke.txt; \
	echo "metrics exposition smoke: ok"

# Cluster smoke (the CI step): two route-mode ufpserve nodes, each
# sharded in-process, replaying a ufpgen corpus through
# ufpbench -load -targets, plus one session registered on node 1 and
# driven through node 0 to exercise the cross-node proxy. Asserts the
# ring actually spread jobs (non-zero ufp_shard_routed_total on both
# nodes), the proxy forwarded (ufp_route_forwarded_total), and no
# session operation landed on a wrong shard (ufp_shard_misrouted_total
# stays 0 cluster-wide). One shell invocation so the EXIT trap always
# reaps both background servers.
smoke-cluster: SHELL := /bin/bash
smoke-cluster: .SHELLFLAGS := -o pipefail -c
smoke-cluster:
	$(GO) build -o /tmp/ufpserve-cluster ./cmd/ufpserve
	$(GO) build -o /tmp/ufpbench-cluster ./cmd/ufpbench
	rm -rf /tmp/cluster-corpus && $(GO) run ./cmd/ufpgen -corpus /tmp/cluster-corpus -seeds 1
	peers=http://127.0.0.1:18090,http://127.0.0.1:18091; \
	/tmp/ufpserve-cluster -addr 127.0.0.1:18090 -shards 2 -route -peers $$peers -self 0 & p0=$$!; \
	/tmp/ufpserve-cluster -addr 127.0.0.1:18091 -shards 2 -route -peers $$peers -self 1 & p1=$$!; \
	trap 'kill $$p0 $$p1 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf 127.0.0.1:18090/v1/readyz > /dev/null && \
		curl -sf 127.0.0.1:18091/v1/readyz > /dev/null && break; sleep 0.1; \
	done; \
	/tmp/ufpbench-cluster -load -corpus /tmp/cluster-corpus -jobs 24 -concurrency 8 -targets $$peers; \
	id=$$(curl -sf 127.0.0.1:18091/v1/networks \
		-d '{"eps":0.25,"network":{"directed":true,"vertices":2,"edges":[{"from":0,"to":1,"capacity":30}]}}' \
		| grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4); \
	case "$$id" in p1.*) ;; *) echo "node 1 session id lacks its node prefix: '$$id'" >&2; exit 1;; esac; \
	curl -sf 127.0.0.1:18090/v1/networks/$$id/admit \
		-d '{"source":0,"target":1,"demand":1,"value":2}' | grep -q '"admitted":true'; \
	curl -sf 127.0.0.1:18090/metrics > /tmp/cluster-metrics-0.txt; \
	curl -sf 127.0.0.1:18091/metrics > /tmp/cluster-metrics-1.txt; \
	grep -Eq '^ufp_shard_routed_total\{shard="[0-9]+"\} [0-9]*[1-9]' /tmp/cluster-metrics-0.txt; \
	grep -Eq '^ufp_shard_routed_total\{shard="[0-9]+"\} [0-9]*[1-9]' /tmp/cluster-metrics-1.txt; \
	grep -Eq '^ufp_route_forwarded_total\{peer="1"\} [0-9]*[1-9]' /tmp/cluster-metrics-0.txt; \
	grep -q '^ufp_shard_misrouted_total 0$$' /tmp/cluster-metrics-0.txt; \
	grep -q '^ufp_shard_misrouted_total 0$$' /tmp/cluster-metrics-1.txt; \
	echo "cluster smoke: ok"

ci: fmt vet perfbench-check build test bench fuzz-smoke smoke smoke-session smoke-metrics smoke-cluster
