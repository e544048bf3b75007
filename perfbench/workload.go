package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"strconv"

	"truthfulufp/internal/core"
	"truthfulufp/internal/graph"
	"truthfulufp/internal/scenario"
)

// Workload names (the --workload flag).
const (
	wlSession = "session-stream"
	wlSolve   = "solve-mix"
	wlMech    = "mechanism-payments"
)

var workloadNames = []string{wlSession, wlSolve, wlMech}

const (
	// conns is the client's connection count, one closed-loop bidder per
	// connection. One leaves the 2-vCPU reference machine a core for the
	// server's GC, the client and the kernel's loopback. With two, server
	// and client wanted more than the two cores, and every dip in the
	// shared host's speed showed: over five seeds run in alternation with
	// one connection, two spread 0.15 against 0.08 on session-stream
	// throughput, and on mechanism-payments a dip stretched the latency
	// tail 1.7× where one connection's moved 1.2×.
	conns = 1
	// eps is ufpserve's default -eps; every body carries it explicitly.
	eps = 0.25

	// Session stream: waxman-1k with hotspot demands, each connection
	// streaming its own session. The network and its request pool are
	// fixed (sessionNetSeed); the seed picks each connection's order of
	// requests and mix of operations, so that runs with different seeds
	// differ in traffic, not in the graph the timings depend on. The op
	// list per connection is long enough for several times the throughput
	// of the reference machine; a faster server wraps around it (the
	// session state keeps evolving).
	sessionVertices = 1000
	sessionNetSeed  = 1
	sessionPool     = 40000
	sessionOps      = 100000
	shareAdmit      = 0.70
	shareQuote      = 0.20 // the rest are releases of the oldest live admission

	// Job instances: each connection's catalog instances are fixed
	// (jobInstanceSeed), and so is the instance each round of the catalog
	// takes from each family; the seed orders the families within each
	// round and, for solve-mix, picks which earlier job each repeat
	// repeats. Families differ severalfold in solve time, so the latency
	// median sits in a sparse part of a multimodal distribution and the
	// tail is made by a few slow instances; with every whole round the
	// same set of jobs, runs with different seeds time the same work, and
	// the median and tail move with the program, not with the draw.
	jobInstanceSeed = 1

	// solve-mix repeats: after the first repeatWarm jobs of a connection
	// every repeatEvery-th job repeats one of its own earlier jobs,
	// repeatMinGap..repeatMaxGap jobs back. The gap keeps the original
	// finished (closed loop) and inside the engine's 1024-entry result
	// cache, so every repeat is a cache hit and never a coalesced wait.
	repeatEvery  = 4
	repeatWarm   = 16
	repeatMinGap = 8
	repeatMaxGap = 64

	// mechRequests is the request count of a mechanism-payments instance:
	// about 0.05–0.35 s of critical-value bisection per job on the
	// reference machine.
	mechRequests = 12

	// Job pools. A connection cycles through its pool, so a pass never
	// generates while it is timed, however fast the server is. Between
	// two laps of one job the connections submit more fresh jobs than the
	// engine's 1024-entry LRU result cache holds (0.75 × 2048 for
	// solve-mix, 1200 for mechanism-payments), so a later lap misses the
	// cache exactly as the first did.
	solvePool = 2048
	mechPool  = 1200 // 50 rounds of the catalog

	// Quality prefixes: value_share and the decision counts cover each
	// connection's first ops of a pass, and every pass runs at least this
	// far (past its --seconds on a machine too slow to get there). The
	// figures then depend only on the seed and the program's decisions,
	// not on how far a faster or slower server got into the stream. The
	// reference machine passes each prefix within the first 5 seconds.
	sessionQuality = 4000
	solveQuality   = 1024
	mechQuality    = 32
)

// opKind is a session operation.
type opKind uint8

const (
	opAdmit opKind = iota
	opQuote
	opRelease
	opJob // a POST /v1/solve
)

func (k opKind) String() string {
	return [...]string{"admit", "price", "release", "solve"}[k]
}

// sessionOp is one streamed session call. req indexes the pool: the
// request admitted (admit), quoted (price), or — for a release that
// finds no live admission — quoted instead. A release frees the
// connection's oldest live admission, whose id the client learns from
// the server's answers.
type sessionOp struct {
	kind opKind
	req  int32
}

// sessionStream is the generated session-stream workload.
type sessionStream struct {
	inst     *core.Instance // network plus the request pool
	register []byte         // POST /v1/networks body
	ops      [conns][]sessionOp
}

func newSessionStream(seed uint64) (*sessionStream, error) {
	inst, err := scenario.Generate(scenario.Config{
		Topology: "waxman", Demand: "hotspot", Size: sessionVertices,
		Requests: sessionPool, Seed: sessionNetSeed,
	})
	if err != nil {
		return nil, err
	}
	s := &sessionStream{inst: inst}
	b := []byte(`{"eps":`)
	b = appendFloat(b, eps)
	b = append(b, `,"network":`...)
	b = appendNetwork(b, inst.G)
	s.register = append(b, '}')
	for c := range s.ops {
		rng := rand.New(rand.NewPCG(seed, 0x5e55100+uint64(c)))
		// Connection c admits its half of the pool in a seeded order.
		order := rng.Perm(len(inst.Requests) / conns)
		ops := make([]sessionOp, sessionOps)
		next := 0
		for i := range ops {
			req := int32(order[next%len(order)]*conns + c)
			u := rng.Float64()
			switch {
			case u < shareAdmit:
				ops[i] = sessionOp{opAdmit, req}
				next++
			case u < shareAdmit+shareQuote:
				ops[i] = sessionOp{opQuote, req}
			default:
				ops[i] = sessionOp{opRelease, req}
			}
		}
		s.ops[c] = ops
	}
	return s, nil
}

// op returns connection c's i-th op (the list wraps).
func (s *sessionStream) op(c, i int) sessionOp { return s.ops[c][i%len(s.ops[c])] }

// executed is the operation a client with live admissions runs for op:
// a release with nothing live runs as a price quote of op's request.
func (op sessionOp) executed(live int) opKind {
	if op.kind == opRelease && live == 0 {
		return opQuote
	}
	return op.kind
}

func (s *sessionStream) hash() string {
	h := sha256.New()
	h.Write([]byte(wlSession))
	h.Write(s.register)
	for c := range s.ops {
		for _, op := range s.ops[c] {
			r := s.inst.Requests[op.req]
			h.Write([]byte{byte(op.kind)})
			hashRequest(h, r)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// admitBody is the body of /admit and /price.
func admitBody(r core.Request) []byte {
	b := []byte(`{"source":`)
	b = strconv.AppendInt(b, int64(r.Source), 10)
	b = append(b, `,"target":`...)
	b = strconv.AppendInt(b, int64(r.Target), 10)
	b = append(b, `,"demand":`...)
	b = appendFloat(b, r.Demand)
	b = append(b, `,"value":`...)
	b = appendFloat(b, r.Value)
	return append(b, '}')
}

func releaseBody(id int64) []byte {
	return append(strconv.AppendInt([]byte(`{"id":`), id, 10), '}')
}

// job is one POST /v1/solve of a job stream. Only the body is kept; a
// check regenerates the instance from cfg.
type job struct {
	// repeatOf is the index of the earlier job this one repeats, or -1.
	repeatOf int
	// opensRound marks the first fresh job of a round of the catalog. A
	// timed pass stops only before such a job, so it runs whole rounds and
	// every seed times the same set of instances.
	opensRound bool
	cfg        scenario.Config
	body       []byte
}

// jobStream is one connection's job pool, a function of (workload, seed,
// connection). A pass cycles through it: its j-th job is job(j).
type jobStream struct {
	alg  string
	jobs []*job
}

func (s *jobStream) job(j int) *job { return s.jobs[j%len(s.jobs)] }

// combos are the catalog's topology × demand pairs, in a fixed order.
func combos() [][2]string {
	var out [][2]string
	for _, t := range scenario.Topologies() {
		for _, d := range scenario.Demands() {
			out = append(out, [2]string{t.Name, d.Name})
		}
	}
	return out
}

func newJobStream(workload string, seed uint64, conn int) (*jobStream, error) {
	s := &jobStream{alg: "ufp/solve"}
	n := solvePool
	if workload == wlMech {
		s.alg, n = "ufp/mechanism", mechPool
	}
	repeat := func(j int) bool { return workload == wlSolve && j >= repeatWarm && j%repeatEvery == 0 }
	// The fresh jobs go round the catalog: each round takes one fixed
	// instance of every family, in a family order the seed shuffles.
	// Connections walk the same order spread evenly over the catalog, so
	// no two work on the same family at the same time.
	cs := combos()
	fixed := rand.New(rand.NewPCG(jobInstanceSeed, 0x10b5000+uint64(conn)))
	order := rand.New(rand.NewPCG(seed, 0x10b5100))
	rng := rand.New(rand.NewPCG(seed, 0x10b5000+uint64(conn)))
	var round []int    // the current round's family order
	var seeds []uint64 // the current round's instance seed of each family
	fresh := 0
	for j := 0; j < n; j++ {
		if repeat(j) {
			orig := j - repeatMinGap - rng.IntN(min(repeatMaxGap, j)-repeatMinGap+1)
			for s.jobs[orig].repeatOf >= 0 {
				orig = s.jobs[orig].repeatOf
			}
			s.jobs = append(s.jobs, &job{repeatOf: orig, cfg: s.jobs[orig].cfg, body: s.jobs[orig].body})
			continue
		}
		k := fresh % len(cs)
		if k == 0 {
			round = order.Perm(len(cs))
			seeds = seeds[:0]
			for range cs {
				seeds = append(seeds, fixed.Uint64())
			}
		}
		f := round[(k+conn*len(cs)/conns)%len(cs)]
		fresh++
		cfg := scenario.Config{Topology: cs[f][0], Demand: cs[f][1], Seed: seeds[f]}
		if workload == wlMech {
			cfg.Requests = mechRequests
		}
		inst, err := scenario.Generate(cfg)
		if err != nil {
			return nil, err
		}
		b := []byte(`{"algorithm":"`)
		b = append(b, s.alg...)
		b = append(b, `","eps":`...)
		b = appendFloat(b, eps)
		b = append(b, `,"instance":`...)
		b = appendInstance(b, inst)
		b = append(b, '}')
		s.jobs = append(s.jobs, &job{repeatOf: -1, opensRound: k == 0, cfg: cfg, body: b})
	}
	return s, nil
}

// hashJobStreams hashes every pool.
func hashJobStreams(workload string, streams []*jobStream) string {
	h := sha256.New()
	h.Write([]byte(workload))
	for _, s := range streams {
		for _, jb := range s.jobs {
			writeInt(h, int64(jb.repeatOf))
			h.Write(jb.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashRequest(h hash.Hash, r core.Request) {
	writeInt(h, int64(r.Source))
	writeInt(h, int64(r.Target))
	writeInt(h, int64(math.Float64bits(r.Demand)))
	writeInt(h, int64(math.Float64bits(r.Value)))
}

func writeInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// appendFloat writes the shortest decimal that parses back to v exactly,
// so the server decodes the very numbers the generator produced.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: non-finite number %v in a generated body", v))
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendNetwork writes the /v1/networks network schema, compactly.
func appendNetwork(b []byte, g *graph.Graph) []byte {
	b = append(b, `{"directed":`...)
	b = strconv.AppendBool(b, g.Directed())
	b = append(b, `,"vertices":`...)
	b = strconv.AppendInt(b, int64(g.NumVertices()), 10)
	b = append(b, `,"edges":[`...)
	for i, e := range g.Edges() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"from":`...)
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(e.To), 10)
		b = append(b, `,"capacity":`...)
		b = appendFloat(b, e.Capacity)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

// appendInstance writes the instance schema: the network plus requests.
func appendInstance(b []byte, inst *core.Instance) []byte {
	b = appendNetwork(b, inst.G)
	b = b[:len(b)-1] // reopen the object
	b = append(b, `,"requests":[`...)
	for i, r := range inst.Requests {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, admitBody(r)...)
	}
	return append(b, ']', '}')
}
