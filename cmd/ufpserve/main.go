// Command ufpserve is the HTTP/JSON front end of the solve engine: a
// stateless batch surface (run any registered algorithm on a shipped
// instance) and a stateful session surface serving the paper's online
// setting — register a network once, then stream admit / price /
// release calls against its persistent prices, flows, and warm path
// cache, each costing one incremental shortest-path query instead of a
// full solve.
//
// Usage:
//
//	ufpserve [-addr :8080] [-workers 0] [-solve-workers 1] [-cache 1024]
//	         [-eps 0.25] [-timeout 60s] [-max-sessions 64] [-session-ttl 0]
//	         [-log-format text|json] [-pprof-addr ""]
//	         [-block-on-full]
//	         [-route -peers http://a:8080,http://b:8080 -self 0]
//
// Session path oracle: networks of 64 or more vertices get landmark
// tables built once from their initial prices and shared across
// sessions with the same topology. Prices only rise, so the tables stay
// valid lower bounds for a session's whole life; a violated bound
// disables the session's tables, which then costs speed, never an
// answer. The oracle has no tuning flags.
//
// One engine serves every request. -route runs several processes as one
// cluster: session ids gain a node prefix ("p1.") and any node proxies
// a session call for another node's id to that peer from the -peers
// list, propagating the request id; a proxied call is never proxied
// again. A full job queue answers 429 with a Retry-After hint derived
// from queue depth × mean solve latency (-block-on-full restores the
// old blocking behaviour).
//
// v1 endpoints:
//
//	GET    /v1/algorithms
//	POST   /v1/solve                  {"algorithm": "ufp/solve", "eps": 0.25, "instance": {...}}
//	POST   /v1/networks               {"network": {...}, "eps": 0.25}
//	GET    /v1/networks/{id}
//	DELETE /v1/networks/{id}
//	POST   /v1/networks/{id}/admit    {"source": 0, "target": 3, "demand": 0.5, "value": 2}
//	POST   /v1/networks/{id}/price    (same body; quotes without admitting)
//	POST   /v1/networks/{id}/release  {"id": 7}
//	GET    /v1/healthz                liveness: 200 while the process serves (engine and session counters)
//	GET    /v1/readyz                 readiness: 503 while draining on shutdown; body reports queue saturation
//	GET    /metrics                   Prometheus text exposition (ufp_http_*, ufp_route_*, ufp_engine_*, ufp_session_*, ufp_pathcache_*)
//
// Observability: every route runs through the instrument middleware
// (request counters by status class, in-flight gauge, per-route latency
// histograms, Server-Timing on v1 routes) and emits one structured
// log/slog line per request with a request id that is adopted from an
// inbound X-Request-Id header or generated, echoed on the response, and
// included in the error envelope. -pprof-addr starts net/http/pprof on
// a separate listener (off by default — profiling is opt-in and never
// shares the serving port). On SIGINT/SIGTERM the server marks itself
// draining (readiness flips to 503 so load balancers stop routing),
// finishes in-flight requests, and only then shuts the engine down.
//
// Deprecated aliases (Deprecation/Sunset headers; see README migration
// table): POST /solve, /mechanism, /auction map onto the /v1/solve
// dispatch with a fixed or legacy-field-selected algorithm; GET
// /healthz serves /v1/healthz.
//
// Instances use the same JSON schema as cmd/ufprun and cmd/aucrun (see
// the root package's MarshalInstance/MarshalAuction); networks use the
// instance schema minus requests. Every error is the envelope
// {"error":{"code","message"}} with a stable machine-readable code.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"truthfulufp"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ufpserve:", err)
		os.Exit(1)
	}
}

func run(args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("ufpserve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "engine workers = concurrent jobs (0 = GOMAXPROCS)")
		solveWorkers = fs.Int("solve-workers", 1, "goroutines per solve (intra-job parallelism)")
		cache        = fs.Int("cache", 0, "result cache entries (0 = default, negative = disabled)")
		queue        = fs.Int("queue", 0, "pending-job queue depth (0 = 4x workers)")
		eps          = fs.Float64("eps", 0.25, "default accuracy parameter ε")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-request solve timeout, 0 = none (a solve abandoned by every client is cancelled and its worker reclaimed)")
		maxSessions  = fs.Int("max-sessions", 0, "live session cap, LRU eviction beyond it (0 = default, negative = unbounded)")
		sessionTTL   = fs.Duration("session-ttl", 0, "expire sessions idle longer than this (0 = never)")
		logFormat    = fs.String("log-format", "text", "structured request log format: text|json")
		pprofAddr    = fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		block        = fs.Bool("block-on-full", false, "block on a full job queue instead of shedding with 429 + Retry-After")
		route        = fs.Bool("route", false, "cluster route mode: proxy misrouted session calls to the peer named by the session id's node prefix (requires -peers and -self)")
		peersFlag    = fs.String("peers", "", "comma-separated peer base URLs, this node included, in cluster-wide order (e.g. http://a:8080,http://b:8080)")
		self         = fs.Int("self", 0, "this node's index into -peers")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(*logFormat, logw)
	if err != nil {
		return err
	}
	var peers []string
	nodePrefix := ""
	if *route {
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, strings.TrimRight(p, "/"))
			}
		}
		if len(peers) < 2 {
			return fmt.Errorf("-route needs at least two -peers base URLs, got %d", len(peers))
		}
		if *self < 0 || *self >= len(peers) {
			return fmt.Errorf("-self %d is out of range for %d peers", *self, len(peers))
		}
		// The node prefix makes every session id name its owning node
		// cluster-wide ("p1.n3"), which is all the routing state the
		// cluster has — no directory service.
		nodePrefix = fmt.Sprintf("p%d.", *self)
	}
	eng := truthfulufp.NewEngine(truthfulufp.EngineConfig{
		Workers:         *workers,
		SolveWorkers:    *solveWorkers,
		CacheSize:       *cache,
		QueueDepth:      *queue,
		BlockOnFull:     *block,
		MaxSessions:     *maxSessions,
		SessionTTL:      *sessionTTL,
		SessionIDPrefix: nodePrefix,
	})
	// Closed explicitly after the HTTP drain below; the defer covers
	// early error returns.
	defer eng.Close()
	s := newServer(eng, *eps, *timeout, truthfulufp.NewMetricsRegistry(), logger)
	if *route {
		s.routeMode, s.peers, s.self = true, peers, *self
	}
	// No blanket WriteTimeout: dispatch sets a per-request write deadline
	// after the body is read, so slow uploads don't eat the solve budget.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		psrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           pprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("pprof listening", slog.String("addr", *pprofAddr))
			if perr := psrv.ListenAndServe(); !errors.Is(perr, http.ErrServerClosed) {
				logger.Error("pprof server", slog.Any("err", perr))
			}
		}()
		defer psrv.Close()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", slog.String("addr", *addr), slog.Int("workers", eng.Workers()))
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		// Drain order: flip readiness (load balancers stop routing), let
		// Shutdown finish the in-flight requests — including streamed
		// session operations — then the deferred engine.Close drains the
		// job queue. Session state needs no draining of its own: it holds
		// no goroutines, only memory.
		s.draining.Store(true)
		logger.Info("draining", slog.Duration("timeout", drainTimeout))
		shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return fmt.Errorf("draining: %w", err)
		}
		<-errc // ListenAndServe has returned http.ErrServerClosed
		return nil
	}
}

// drainTimeout bounds graceful shutdown: in-flight requests get this
// long to finish before the process exits anyway.
const drainTimeout = 30 * time.Second

// pprofMux serves the net/http/pprof handlers on a mux of their own —
// profiling never shares the serving port or its middleware.
func pprofMux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

// server holds the handler's dependencies and the HTTP-layer
// instruments the middleware updates per request.
type server struct {
	eng        *truthfulufp.Engine
	defaultEps float64
	timeout    time.Duration
	logger     *slog.Logger
	reg        *truthfulufp.MetricsRegistry
	// draining flips /v1/readyz to 503 during graceful shutdown.
	draining atomic.Bool

	// Route mode: session calls whose id's node prefix names another
	// peer are proxied to peers[that index].
	routeMode bool
	peers     []string
	self      int
	client    *http.Client

	httpReqs    *truthfulufp.MetricsFamily // counter{route,code,deprecated}
	httpLatency *truthfulufp.MetricsFamily // histogram{route}
	inFlight    *truthfulufp.MetricsGauge
	forwarded   *truthfulufp.MetricsFamily // counter{peer}
}

// newServer wires a server around an engine, registering the engine's
// metric families (and, below, its own ufp_http_* and ufp_route_*
// families) into reg. A nil reg gets a private registry; a nil logger
// discards. The engine is owned by the caller.
func newServer(eng *truthfulufp.Engine, defaultEps float64, timeout time.Duration, reg *truthfulufp.MetricsRegistry, logger *slog.Logger) *server {
	if reg == nil {
		reg = truthfulufp.NewMetricsRegistry()
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	eng.RegisterMetrics(reg)
	s := &server{eng: eng, defaultEps: defaultEps, timeout: timeout, logger: logger, reg: reg,
		client: &http.Client{Timeout: 2 * time.Minute}}
	s.httpReqs = reg.NewCounterFamily("ufp_http_requests_total",
		"HTTP requests by route pattern, status class, and deprecation.",
		"route", "code", "deprecated")
	s.httpLatency = reg.NewHistogramFamily("ufp_http_request_duration_seconds",
		"Wall time serving each request, by route pattern.",
		truthfulufp.MetricsDefLatencyBuckets, "route")
	s.inFlight = reg.NewGaugeFamily("ufp_http_in_flight",
		"Requests currently being served.").Gauge()
	s.forwarded = reg.NewCounterFamily("ufp_route_forwarded_total",
		"Session calls proxied to a peer, by peer index (route mode).", "peer")
	return s
}

// newHandler is the one-call convenience wiring (private registry,
// discard logger) used by tests.
func newHandler(eng *truthfulufp.Engine, defaultEps float64, timeout time.Duration) http.Handler {
	return newServer(eng, defaultEps, timeout, nil, nil).handler()
}

// handler builds the endpoint mux, every route instrumented — the
// deprecated aliases run through the same middleware chain with
// deprecated="true" so legacy traffic volume is measurable.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	v1 := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(route, false, h))
	}
	legacy := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(route, true, h))
	}
	v1("GET /v1/algorithms", "/v1/algorithms", s.handleAlgorithms)
	v1("POST /v1/solve", "/v1/solve", s.handleV1Solve)
	v1("POST /v1/networks", "/v1/networks", s.handleNetworkRegister)
	v1("GET /v1/networks/{id}", "/v1/networks/{id}", s.handleNetworkInfo)
	v1("DELETE /v1/networks/{id}", "/v1/networks/{id}", s.handleNetworkDelete)
	v1("POST /v1/networks/{id}/admit", "/v1/networks/{id}/admit", s.handleAdmit)
	v1("POST /v1/networks/{id}/price", "/v1/networks/{id}/price", s.handlePrice)
	v1("POST /v1/networks/{id}/release", "/v1/networks/{id}/release", s.handleRelease)
	v1("GET /v1/healthz", "/v1/healthz", s.handleHealthz)
	v1("GET /v1/readyz", "/v1/readyz", s.handleReadyz)
	v1("GET /metrics", "/metrics", s.reg.Handler().ServeHTTP)
	// Deprecated aliases over the same dispatch.
	legacy("POST /solve", "/solve", s.handleLegacySolve)
	legacy("POST /mechanism", "/mechanism", s.handleLegacyMechanism)
	legacy("POST /auction", "/auction", s.handleLegacyAuction)
	legacy("GET /healthz", "/healthz", s.deprecated("/v1/healthz", s.handleHealthz))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		// dispatch sets a per-request write deadline, and with no blanket
		// Server.WriteTimeout net/http never resets it — clear it here so
		// it cannot outlive this request on a keep-alive connection.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	})
}

// Legacy-route lifecycle (RFC 9745 Deprecation, RFC 8594 Sunset): the
// pre-v1 routes were deprecated when the v1 session surface landed and
// are removed at the sunset date.
var (
	legacyDeprecatedAt = time.Date(2026, time.August, 1, 0, 0, 0, 0, time.UTC)
	legacySunsetAt     = time.Date(2027, time.February, 1, 0, 0, 0, 0, time.UTC)
)

// deprecated wraps a legacy handler with the deprecation headers and a
// successor-version link.
func (s *server) deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hdr := w.Header()
		hdr.Set("Deprecation", fmt.Sprintf("@%d", legacyDeprecatedAt.Unix()))
		hdr.Set("Sunset", legacySunsetAt.Format(http.TimeFormat))
		hdr.Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		h(w, r)
	}
}

// Stable machine-readable error codes (the "code" of the error
// envelope). These are API surface: clients branch on them.
const (
	codeBadRequest       = "bad_request"       // malformed body, schema, or parameters
	codeBodyTooLarge     = "body_too_large"    // request body over the size cap
	codeUnknownAlgorithm = "unknown_algorithm" // algorithm not in the registry
	codeNotFound         = "not_found"         // unknown network or admission id
	codeSessionClosed    = "session_closed"    // session evicted or closed mid-request
	codeTimeout          = "timeout"           // solve exceeded the per-request timeout
	codeUnavailable      = "unavailable"       // server shutting down
	codeOverloaded       = "overloaded"        // job queue full; retry after the Retry-After hint
	codeUpstream         = "upstream_error"    // route mode: the owning peer was unreachable
	codeSolveFailed      = "solve_failed"      // algorithm rejected the instance
	codeInternal         = "internal"          // response encoding failure
)

// errorResponse is the unified error envelope of every endpoint.
type errorResponse struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RequestID echoes the request's id (the X-Request-Id response
	// header) so a client-reported failure is greppable in the request
	// log.
	RequestID string `json:"requestId,omitempty"`
}

// maxRequestBytes caps request bodies so one oversized instance cannot
// exhaust server memory.
const maxRequestBytes = 32 << 20

// decodeJSON strictly decodes a request body into v (unknown fields
// and trailing garbage rejected), writing the error envelope on
// failure. The one decode path of every POST endpoint.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, codeBadRequest, errors.New("trailing data after the JSON document"))
		return false
	}
	return true
}

// solveRequest is the body of /v1/solve and its deprecated aliases.
// Instance carries the cmd/ufprun (UFP) or cmd/aucrun (auction)
// schema, per the algorithm's kind.
type solveRequest struct {
	// Algorithm selects the registry solver on /v1/solve (see
	// /v1/algorithms for the catalog).
	Algorithm string `json:"algorithm"`
	// Kind is the deprecated /solve spelling of Algorithm (default
	// "ufp/solve" there).
	Kind string `json:"kind"`
	// Mode selects "solve" (default) or "mechanism" on the deprecated
	// /auction alias.
	Mode string `json:"mode"`
	// Eps is the accuracy parameter ε (default: the server's -eps flag).
	Eps *float64 `json:"eps"`
	// Seed parameterizes randomized solvers (e.g. "ufp/rounding").
	Seed uint64 `json:"seed"`
	// MaxIterations caps iterative main loops (0 = unlimited);
	// recommended for the pseudo-polynomial ufp/repeat*.
	MaxIterations int             `json:"maxIterations"`
	NoCache       bool            `json:"noCache"`
	Instance      json.RawMessage `json:"instance"`
}

// solveResponse wraps the canonical result encoding with job metadata.
type solveResponse struct {
	Algorithm  string          `json:"algorithm,omitempty"`
	Allocation json.RawMessage `json:"allocation,omitempty"`
	Outcome    json.RawMessage `json:"outcome,omitempty"`
	CacheHit   bool            `json:"cacheHit"`
	ElapsedMs  float64         `json:"elapsedMs"`
}

// decodeSolveRequest is the one decode path shared by /v1/solve and
// every deprecated alias (legacy request bodies are a subset of the v1
// schema, so strict decoding covers all four routes).
func (s *server) decodeSolveRequest(w http.ResponseWriter, r *http.Request) (*solveRequest, bool) {
	var req solveRequest
	if !decodeJSON(w, r, &req) {
		return nil, false
	}
	if len(req.Instance) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, errors.New("request is missing an instance"))
		return nil, false
	}
	return &req, true
}

func (s *server) eps(eps *float64) float64 {
	if eps != nil {
		return *eps
	}
	return s.defaultEps
}

// dispatch runs the job on the engine under the per-request timeout
// (non-positive timeout = none). The body is already read at this point,
// so the write deadline budgets the solve plus response, independent of
// upload speed.
func (s *server) dispatch(w http.ResponseWriter, r *http.Request, job truthfulufp.Job) (*truthfulufp.JobResult, bool) {
	ctx := r.Context()
	if s.timeout > 0 {
		// Best effort: some ResponseWriters (tests, middleware) may not
		// support deadlines; the engine context below still bounds the wait.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(s.timeout + 15*time.Second))
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	res, err := s.eng.Do(ctx, job)
	if err != nil {
		status, code := http.StatusUnprocessableEntity, codeSolveFailed
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status, code = http.StatusGatewayTimeout, codeTimeout
		case errors.Is(err, truthfulufp.ErrEngineClosed):
			status, code = http.StatusServiceUnavailable, codeUnavailable
		case errors.Is(err, truthfulufp.ErrEngineOverloaded):
			status, code = http.StatusTooManyRequests, codeOverloaded
			retry := time.Second
			var oe *truthfulufp.EngineOverloadError
			if errors.As(err, &oe) {
				retry = oe.RetryAfter
			}
			// Whole seconds per RFC 9110, rounded up so the jittered hint
			// never invites an instant retry.
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
		}
		writeError(w, status, code, err)
		return nil, false
	}
	return res, true
}

// algorithmInfo is one entry of /v1/algorithms.
type algorithmInfo struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Mechanism bool   `json:"mechanism"`
	// DefaultMaxIterations is the main-loop cap applied when the request
	// leaves maxIterations zero (omitted when zero means unlimited); the
	// pseudo-polynomial repeat variants carry one.
	DefaultMaxIterations int    `json:"defaultMaxIterations,omitempty"`
	Description          string `json:"description,omitempty"`
}

type algorithmsResponse struct {
	Algorithms []algorithmInfo `json:"algorithms"`
}

func (s *server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	resp := algorithmsResponse{Algorithms: []algorithmInfo{}}
	for _, sv := range truthfulufp.Solvers() {
		resp.Algorithms = append(resp.Algorithms, algorithmInfo{
			Name:                 sv.Name(),
			Kind:                 string(sv.Kind()),
			Mechanism:            sv.Kind().IsMechanism(),
			DefaultMaxIterations: truthfulufp.SolverDefaultMaxIterations(sv),
			Description:          truthfulufp.SolverDescription(sv),
		})
	}
	writeResult(w, resp)
}

// handleV1Solve runs any registered algorithm by name — the one solve
// path; the deprecated aliases resolve an algorithm and land here too.
func (s *server) handleV1Solve(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeSolveRequest(w, r)
	if !ok {
		return
	}
	if req.Algorithm == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			errors.New("request is missing an algorithm (see GET /v1/algorithms)"))
		return
	}
	s.runSolve(w, r, req, req.Algorithm, "")
}

// runSolve is the single execution path behind /v1/solve and the
// deprecated aliases: resolve the algorithm, decode the instance per
// its kind, dispatch on the engine, and write the solve response.
// wantKind, when non-empty, restricts the algorithm's solver kind (the
// aliases' fixed shapes).
func (s *server) runSolve(w http.ResponseWriter, r *http.Request, req *solveRequest, algorithm string, wantKind truthfulufp.SolverKind) {
	sv, registered := truthfulufp.LookupSolver(algorithm)
	if !registered {
		writeError(w, http.StatusBadRequest, codeUnknownAlgorithm,
			fmt.Errorf("unknown algorithm %q (see GET /v1/algorithms)", algorithm))
		return
	}
	if wantKind != "" && sv.Kind() != wantKind {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Errorf("algorithm %q is not served by this endpoint (use POST /v1/solve)", algorithm))
		return
	}
	job := truthfulufp.Job{
		Algorithm: algorithm, Eps: s.eps(req.Eps), Seed: req.Seed,
		MaxIterations: req.MaxIterations, NoCache: req.NoCache,
	}
	if sv.Kind().IsUFP() {
		inst, err := truthfulufp.UnmarshalInstance(req.Instance)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		job.UFP = inst
	} else {
		inst, err := truthfulufp.UnmarshalAuction(req.Instance)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, err)
			return
		}
		job.Auction = inst
	}
	res, ok := s.dispatch(w, r, job)
	if !ok {
		return
	}
	body, err := truthfulufp.MarshalSolverOutput(truthfulufp.SolverOutput{
		Allocation:        res.Allocation,
		AuctionAllocation: res.AuctionAllocation,
		UFPOutcome:        res.UFPOutcome,
		AuctionOutcome:    res.AuctionOutcome,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	resp := solveResponse{Algorithm: algorithm, CacheHit: res.CacheHit, ElapsedMs: ms(res.Elapsed)}
	if sv.Kind().IsMechanism() {
		resp.Outcome = body
	} else {
		resp.Allocation = body
	}
	writeResult(w, resp)
}

// handleLegacySolve is the deprecated /solve alias: the v1 dispatch
// with the algorithm drawn from the legacy "kind" field.
func (s *server) handleLegacySolve(w http.ResponseWriter, r *http.Request) {
	s.deprecated("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		req, ok := s.decodeSolveRequest(w, r)
		if !ok {
			return
		}
		alg := req.Kind
		if alg == "" {
			alg = "ufp/solve"
		}
		s.runSolve(w, r, req, alg, truthfulufp.SolverUFP)
	})(w, r)
}

// handleLegacyMechanism is the deprecated /mechanism alias: /v1/solve
// fixed to "ufp/mechanism".
func (s *server) handleLegacyMechanism(w http.ResponseWriter, r *http.Request) {
	s.deprecated("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		req, ok := s.decodeSolveRequest(w, r)
		if !ok {
			return
		}
		s.runSolve(w, r, req, "ufp/mechanism", truthfulufp.SolverUFPMechanism)
	})(w, r)
}

// handleLegacyAuction is the deprecated /auction alias: /v1/solve with
// the algorithm drawn from the legacy "mode" field.
func (s *server) handleLegacyAuction(w http.ResponseWriter, r *http.Request) {
	s.deprecated("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		req, ok := s.decodeSolveRequest(w, r)
		if !ok {
			return
		}
		switch req.Mode {
		case "", "solve":
			s.runSolve(w, r, req, "muca/solve", truthfulufp.SolverAuction)
		case "mechanism":
			s.runSolve(w, r, req, "muca/mechanism", truthfulufp.SolverAuctionMechanism)
		default:
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("unknown auction mode %q (want solve|mechanism)", req.Mode))
		}
	})(w, r)
}

// registerRequest is the body of POST /v1/networks.
type registerRequest struct {
	// Network is the topology to register (the instance schema minus
	// requests: directed, vertices, edges).
	Network json.RawMessage `json:"network"`
	// Eps is the session's accuracy parameter ε (default: the server's
	// -eps flag). Fixed at registration: prices depend on it.
	Eps *float64 `json:"eps"`
}

// networkResponse wraps a session's point-in-time view.
type networkResponse struct {
	Network truthfulufp.SessionInfo `json:"network"`
	// Ledger lists the live admissions (GET /v1/networks/{id} only).
	Ledger []admittedJSON `json:"ledger,omitempty"`
}

// admittedJSON is one live ledger entry on the wire.
type admittedJSON struct {
	ID     int64   `json:"id"`
	Source int     `json:"source"`
	Target int     `json:"target"`
	Demand float64 `json:"demand"`
	Value  float64 `json:"value"`
	Price  float64 `json:"price"`
	Path   []int   `json:"path"`
}

func encodeAdmitted(a *truthfulufp.AdmittedRequest) admittedJSON {
	return admittedJSON{
		ID:     a.ID,
		Source: a.Request.Source,
		Target: a.Request.Target,
		Demand: a.Request.Demand,
		Value:  a.Request.Value,
		Price:  a.Price,
		Path:   a.Path,
	}
}

func (s *server) handleNetworkRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Network) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, errors.New("request is missing a network"))
		return
	}
	g, err := truthfulufp.UnmarshalNetwork(req.Network)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	sess, err := s.eng.Sessions().Register(g, s.eps(req.Eps))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	info, err := sess.Info()
	if err != nil {
		// Only possible if the session was evicted in the same instant.
		writeError(w, http.StatusServiceUnavailable, codeSessionClosed, err)
		return
	}
	w.Header().Set("Location", "/v1/networks/"+sess.ID())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	if err := json.NewEncoder(w).Encode(networkResponse{Network: info}); err != nil {
		panic(http.ErrAbortHandler)
	}
}

// session resolves the {id} path segment to a live session — or, in
// route mode, proxies the whole request to the peer the id's node
// prefix names (the caller is then done: the peer's response has been
// relayed).
func (s *server) session(w http.ResponseWriter, r *http.Request) (*truthfulufp.Session, bool) {
	id := r.PathValue("id")
	if s.forwardSession(w, r, id) {
		return nil, false
	}
	sess, ok := s.eng.Sessions().Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no network %q (expired, closed, or never registered)", id))
		return nil, false
	}
	return sess, true
}

// forwardSession reports whether the request was proxied to a peer: in
// route mode, an id carrying another node's prefix ("p<j>.") belongs to
// peers[j]. Ids that parse to this node or to no peer, and requests a
// peer already proxied (hopHeader set), fall through to the local
// lookup, so a misconfigured -peers list answers 404 after one hop
// instead of proxying in a loop.
func (s *server) forwardSession(w http.ResponseWriter, r *http.Request, id string) bool {
	if !s.routeMode || r.Header.Get(hopHeader) != "" {
		return false
	}
	peer, ok := peerIndex(id)
	if !ok || peer == s.self || peer >= len(s.peers) {
		return false
	}
	s.proxy(w, r, peer)
	return true
}

// peerIndex parses the node prefix "p<j>." off a session id.
func peerIndex(id string) (int, bool) {
	if len(id) < 3 || id[0] != 'p' {
		return 0, false
	}
	dot := strings.IndexByte(id, '.')
	if dot < 2 {
		return 0, false
	}
	j, err := strconv.Atoi(id[1:dot])
	if err != nil || j < 0 {
		return 0, false
	}
	return j, true
}

// hopHeader marks a proxied request with the forwarding node's index;
// the receiving node never forwards it again.
const hopHeader = "X-Ufp-Forwarded-By"

// proxy relays the request verbatim to the owning peer, propagating
// the request id so one logical call is greppable across the fleet's
// request logs, and streams the peer's response back.
func (s *server) proxy(w http.ResponseWriter, r *http.Request, peer int) {
	url := s.peers[peer] + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		writeError(w, http.StatusBadGateway, codeUpstream, err)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(requestIDHeader, w.Header().Get(requestIDHeader))
	req.Header.Set(hopHeader, strconv.Itoa(s.self))
	resp, err := s.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, codeUpstream,
			fmt.Errorf("forwarding to peer %d: %w", peer, err))
		return
	}
	defer resp.Body.Close()
	s.forwarded.Counter(strconv.Itoa(peer)).Inc()
	for _, h := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// sessionError writes the envelope for a failed session operation:
// a concurrent eviction is 410 Gone, anything else is a bad request.
func sessionError(w http.ResponseWriter, err error) {
	if errors.Is(err, truthfulufp.ErrSessionClosed) {
		writeError(w, http.StatusGone, codeSessionClosed, err)
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, err)
}

func (s *server) handleNetworkInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	info, err := sess.Info()
	if err != nil {
		sessionError(w, err)
		return
	}
	ledger, err := sess.Ledger()
	if err != nil {
		sessionError(w, err)
		return
	}
	resp := networkResponse{Network: info, Ledger: make([]admittedJSON, 0, len(ledger))}
	for _, a := range ledger {
		resp.Ledger = append(resp.Ledger, encodeAdmitted(a))
	}
	writeResult(w, resp)
}

func (s *server) handleNetworkDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.forwardSession(w, r, id) {
		return
	}
	if !s.eng.Sessions().Close(id) {
		writeError(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no network %q (expired, closed, or never registered)", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// admitRequest is the body of /admit and /price: one online request.
type admitRequest struct {
	Source int     `json:"source"`
	Target int     `json:"target"`
	Demand float64 `json:"demand"`
	Value  float64 `json:"value"`
}

// decisionResponse is the outcome of an admit or price call. Price is
// null when no path exists (JSON has no +Inf).
type decisionResponse struct {
	Admitted bool     `json:"admitted"`
	ID       int64    `json:"id,omitempty"`
	Reason   string   `json:"reason,omitempty"`
	Price    *float64 `json:"price"`
	Path     []int    `json:"path,omitempty"`
	// ElapsedMs is the server-side cost of this streamed step — the
	// number the session layer exists to shrink.
	ElapsedMs float64 `json:"elapsedMs"`
}

func encodeDecision(d truthfulufp.AdmitDecision, elapsed time.Duration) decisionResponse {
	resp := decisionResponse{
		Admitted:  d.Admitted,
		ID:        d.ID,
		Reason:    string(d.Reason),
		Path:      d.Path,
		ElapsedMs: ms(elapsed),
	}
	if d.Reason != truthfulufp.RejectNoPath {
		price := d.Price
		resp.Price = &price
	}
	return resp
}

// streamOp runs one admit/price call: decode the request, run op under
// the session's lock, answer with the decision.
func (s *server) streamOp(w http.ResponseWriter, r *http.Request, op func(*truthfulufp.Session, truthfulufp.Request) (truthfulufp.AdmitDecision, error)) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req admitRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	start := time.Now()
	d, err := op(sess, truthfulufp.Request{
		Source: req.Source, Target: req.Target, Demand: req.Demand, Value: req.Value,
	})
	if err != nil {
		sessionError(w, err)
		return
	}
	writeResult(w, encodeDecision(d, time.Since(start)))
}

func (s *server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	s.streamOp(w, r, (*truthfulufp.Session).Admit)
}

func (s *server) handlePrice(w http.ResponseWriter, r *http.Request) {
	s.streamOp(w, r, (*truthfulufp.Session).Quote)
}

// releaseRequest is the body of /release: a prior admission's id.
type releaseRequest struct {
	ID int64 `json:"id"`
}

type releaseResponse struct {
	Released admittedJSON `json:"released"`
}

func (s *server) handleRelease(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req releaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	a, err := sess.Release(req.ID)
	if err != nil {
		if errors.Is(err, truthfulufp.ErrSessionClosed) {
			writeError(w, http.StatusGone, codeSessionClosed, err)
		} else {
			writeError(w, http.StatusNotFound, codeNotFound, err)
		}
		return
	}
	writeResult(w, releaseResponse{Released: encodeAdmitted(a)})
}

// healthResponse is /v1/healthz: liveness, the engine's counters, and
// the session manager's.
type healthResponse struct {
	Status        string                   `json:"status"`
	UptimeSec     float64                  `json:"uptimeSec"`
	Workers       int                      `json:"workers"`
	Submitted     int64                    `json:"submitted"`
	Completed     int64                    `json:"completed"`
	CacheHits     int64                    `json:"cacheHits"`
	Coalesced     int64                    `json:"coalesced"`
	Failures      int64                    `json:"failures"`
	Cancelled     int64                    `json:"cancelled"`
	Shed          int64                    `json:"shed"`
	JobsPerSec    float64                  `json:"jobsPerSec"`
	LatencyMeanMs float64                  `json:"latencyMeanMs"`
	LatencyMaxMs  float64                  `json:"latencyMaxMs"`
	Sessions      truthfulufp.SessionStats `json:"sessions"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Snapshot()
	resp := healthResponse{
		Status:     "ok",
		UptimeSec:  snap.Uptime.Seconds(),
		Workers:    snap.Workers,
		Submitted:  snap.Submitted,
		Completed:  snap.Completed,
		CacheHits:  snap.CacheHits,
		Coalesced:  snap.Coalesced,
		Failures:   snap.Failures,
		Cancelled:  snap.Cancelled,
		Shed:       snap.Shed,
		JobsPerSec: snap.JobsPerSec(),
		Sessions:   snap.Sessions,
	}
	if snap.Latency.N() > 0 {
		resp.LatencyMeanMs = snap.Latency.Mean() * 1e3
		resp.LatencyMaxMs = snap.Latency.Max() * 1e3
	}
	writeResult(w, resp)
}

// readyResponse is /v1/readyz while serving. Saturated reports every
// queue slot and worker busy — the load balancer's early
// overload signal; the probe still answers 200 (shedding, not
// draining: new jobs get fast 429s, streamed session ops still serve).
type readyResponse struct {
	Status        string `json:"status"`
	Saturated     bool   `json:"saturated"`
	QueueDepth    int    `json:"queueDepth"`
	QueueCapacity int    `json:"queueCapacity"`
	Shed          int64  `json:"shed"`
}

// handleReadyz is the readiness probe: 200 while serving, 503 once the
// server is draining on shutdown (liveness — /v1/healthz — stays 200
// throughout, so orchestrators stop routing without restarting the
// process mid-drain). While serving, the body carries the saturation
// view so probes can distinguish "ready" from "ready but shedding".
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, codeUnavailable,
			errors.New("server is draining"))
		return
	}
	depth, capacity := s.eng.QueueDepth(), s.eng.QueueCapacity()
	writeResult(w, readyResponse{
		Status:        "ok",
		Saturated:     capacity > 0 && depth >= capacity,
		QueueDepth:    depth,
		QueueCapacity: capacity,
		Shed:          s.eng.Snapshot().Shed,
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeResult(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do than abort the connection.
		panic(http.ErrAbortHandler)
	}
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: errorBody{
		Code:    code,
		Message: err.Error(),
		// The middleware sets the response header before the handler
		// runs, so reading it back here threads the id into the envelope
		// without changing every writeError call site.
		RequestID: w.Header().Get(requestIDHeader),
	}})
}
