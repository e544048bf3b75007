package pathfind

import (
	"math"
	"sync"

	"truthfulufp/internal/graph"
)

// Scratch is the reusable state of one Dijkstra run: an indexed 4-ary
// heap, dist/prev slices, and generation-stamped visited marks so reset
// between runs is O(1) instead of O(n). A Scratch is not safe for
// concurrent use; share scratches across goroutines with a Pool.
//
// The 4-ary layout halves the tree depth of the binary heap that used
// to sit in the solver's innermost loop, trading slightly more sibling
// comparisons (which hit one cache line) for fewer swaps.
type Scratch struct {
	dist  []float64
	prevE []int32
	prevV []int32
	stamp []uint32
	gen   uint32
	order []int32 // vertices reached this run, in first-touch order
	heap  []int32 // 4-ary min-heap of vertices keyed by dist
	pos   []int32 // vertex -> heap index, -1 if absent
	// keys[v] is v's leximax key in bottleneck runs: the weights of v's
	// canonical path, sorted descending (see Bottleneck). dist[v] mirrors
	// keys[v][0] so the heap's hot comparison stays scalar; full keys are
	// consulted only on ties. cand is the candidate-key build buffer.
	keys [][]float64
	cand []float64
	lex  bool // this run orders the heap by leximax keys, not dist alone
	// A*-mode state (see search): pot is the run's potential (nil outside
	// A* runs), pi[v] = pot(v) and fsc[v] = dist[v] + pi[v] (leximax:
	// max(dist[v], pi[v])) the heap key. Potentials are fixed per vertex
	// per run, so fsc only changes when dist does.
	pot func(int32) float64
	pi  []float64
	fsc []float64
}

// NewScratch returns a Scratch sized for graphs with up to n vertices;
// it grows on demand if used on a larger graph.
func NewScratch(n int) *Scratch {
	s := &Scratch{}
	s.grow(n)
	return s
}

// grow ensures capacity for n vertices, preserving generation marks of
// the existing prefix.
func (s *Scratch) grow(n int) {
	if n <= len(s.dist) {
		return
	}
	old := len(s.dist)
	s.dist = append(s.dist, make([]float64, n-old)...)
	s.pi = append(s.pi, make([]float64, n-old)...)
	s.fsc = append(s.fsc, make([]float64, n-old)...)
	s.keys = append(s.keys, make([][]float64, n-old)...)
	s.prevE = append(s.prevE, make([]int32, n-old)...)
	s.prevV = append(s.prevV, make([]int32, n-old)...)
	s.stamp = append(s.stamp, make([]uint32, n-old)...)
	s.pos = append(s.pos, make([]int32, n-old)...)
	for v := old; v < n; v++ {
		s.pos[v] = -1
	}
}

// reset starts a new generation: every vertex becomes unvisited in O(1)
// (amortized — a uint32 wraparound pays one O(n) clear every 2^32 runs).
func (s *Scratch) reset(n int) {
	s.grow(n)
	s.gen++
	if s.gen == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	s.order = s.order[:0]
	s.heap = s.heap[:0]
	s.lex = false
	s.pot = nil
}

// touch marks v visited this generation and records it for
// materialization.
func (s *Scratch) touch(v int32) {
	s.stamp[v] = s.gen
	s.order = append(s.order, v)
}

// search is the one search kernel behind every Scratch entry point:
// Dijkstra from src over csr (the forward or the reverse adjacency)
// under weight, leaving the run in the scratch state (dist/prevE/prevV
// over s.order). Its three parameters are
//
//   - the combine op, by kind: KindAdditive sums arc weights;
//     KindBottleneck orders paths by their leximax key (see Bottleneck),
//     dist holding the key's first element, the minimax value;
//   - an optional potential pot (nil for none), turning the run into A*
//     ordered by f = dist + pot (additive) or f = max(dist, pot)
//     (leximax), with ties broken by dist and then by the full key (see
//     less);
//   - an optional target dst (negative for none, which exhausts the
//     heap and yields a full tree).
//
// With a target the stop rule is the combine op's. Additive: once dst
// has popped, the run stops at the first pop whose heap key exceeds
// dist[dst] — dist[dst]·(1+altSlack) under a potential — because every
// relaxation that can reach or tie dst's distance is then done.
// Leximax: the run stops the moment dst pops, because appending an arc
// strictly grows a key, so every predecessor and every tie source of
// dst's canonical path orders before dst. Either way the answer is
// bit-identical to reading dst off the full tree. search reports
// whether dst was settled.
func (s *Scratch) search(csr *graph.CSR, kind TreeKind, src, dst int32, weight WeightFunc, pot func(int32) float64) bool {
	s.reset(len(csr.Start) - 1)
	s.lex, s.pot = kind == KindBottleneck, pot
	s.touch(src)
	s.dist[src] = 0
	if s.lex {
		s.dist[src] = math.Inf(-1) // the empty path has no edges: -Inf max
		s.keys[src] = s.keys[src][:0]
	}
	if pot != nil {
		s.pi[src] = pot(src)
		s.fsc[src] = s.pi[src]
	}
	s.prevE[src], s.prevV[src] = -1, -1
	s.push(src)
	found := false
	var bound float64
	for len(s.heap) > 0 {
		v := s.pop()
		if found && s.key(v) > bound {
			break // every key that can reach or tie dist[dst] is settled
		}
		dv := s.dist[v]
		if v == dst {
			found = true
			if s.lex {
				break
			}
			bound = dv
			if pot != nil {
				bound *= 1 + altSlack
			}
		}
		s.relax(csr, v, dv, weight)
	}
	s.pot = nil // keep no potential (nor the tables it reads) alive in a pooled scratch
	return found
}

// relax relaxes every arc v -(e)-> to out of a settled v, with
// dv = dist[v], under the run's combine op: the candidate label is
// dv + w, or the leximax key keys[v] ∪ {w} with maximum max(dv, w). A
// better candidate replaces to's label; a tie on the final label (the
// distance, or the full key) retargets to the larger edge ID — the
// canonical tie-break every kind shares. In A* runs, to's potential is
// evaluated once, on first touch, and the heap key fsc follows every
// label change. The scalar screen comes first, so the common arc — a
// candidate already worse than to's label — costs one weight call and
// one comparison, and full-key work runs only on minimax ties and
// improvements. A run's slices do not grow while it runs, so the loop
// reads them through locals.
func (s *Scratch) relax(csr *graph.CSR, v int32, dv float64, weight WeightFunc) {
	stamp, dist, prevE, gen, lex := s.stamp, s.dist, s.prevE, s.gen, s.lex
	lo, hi := csr.Start[v], csr.Start[v+1]
	ids := csr.EdgeID[lo:hi]
	for k, to := range csr.Head[lo:hi] {
		e := ids[k]
		w := weight(int(e))
		if math.IsInf(w, 1) {
			continue
		}
		nd := dv + w
		if lex {
			nd = max(dv, w)
		}
		fresh := stamp[to] != gen
		if !fresh && nd > dist[to] {
			continue
		}
		if lex {
			s.candidate(v, w)
		}
		if fresh {
			s.touch(to)
			if s.pot != nil {
				s.pi[to] = s.pot(to)
			}
		} else if nd == dist[to] && !(lex && lexLess(s.cand, s.keys[to])) {
			if e > prevE[to] && (!lex || lexEqual(s.cand, s.keys[to])) {
				prevE[to], s.prevV[to] = e, v
			}
			continue
		}
		dist[to] = nd
		if lex {
			s.keys[to] = append(s.keys[to][:0], s.cand...)
		}
		if s.pot != nil {
			if lex {
				s.fsc[to] = max(nd, s.pi[to])
			} else {
				s.fsc[to] = nd + s.pi[to]
			}
		}
		prevE[to], s.prevV[to] = e, v
		if fresh {
			s.push(to)
		} else {
			s.decrease(to)
		}
	}
}

// candidate builds the leximax key keys[v] ∪ {w}, sorted descending,
// into s.cand.
func (s *Scratch) candidate(v int32, w float64) {
	s.cand = s.cand[:0]
	inserted := false
	for _, x := range s.keys[v] {
		if !inserted && w > x {
			s.cand = append(s.cand, w)
			inserted = true
		}
		s.cand = append(s.cand, x)
	}
	if !inserted {
		s.cand = append(s.cand, w)
	}
}

// lexLess compares two leximax keys (sorted descending); a key that is
// a prefix of another ranks below it.
func lexLess(a, b []float64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func lexEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// altSlack is the relative slack on the additive A* stop bound. With a
// potential that is consistent in exact arithmetic, float rounding of
// the potential (differences of accumulated path sums) can overshoot a
// tie-achieving vertex's f-key past dist[dst] by a few ulps; the search
// therefore settles everything with f <= dist[dst]·(1+altSlack) before
// stopping. The extra vertices cannot perturb the answer — an exact-tie
// retarget of a vertex v needs dist[u] + w == dist[v] <= dist[dst] with
// w >= 0, which pins dist[u] <= dist[dst], a vertex both the plain
// early-exit search and the A* search settle — so the slack buys float
// robustness without costing bit-identity. The leximax A* needs none:
// max() never synthesizes new float values, so its f-keys compare
// exactly.
const altSlack = 1e-12

// Dijkstra runs shortest paths from src under nonnegative weights,
// reusing the scratch's buffers, and materializes the result into t
// (allocated when nil). Semantics match the package-level Dijkstra —
// including the canonical largest-edge-ID tie-break — with zero
// steady-state allocation when t is reused.
func (s *Scratch) Dijkstra(g *graph.Graph, src int, weight WeightFunc, t *Tree) *Tree {
	return s.tree(g, KindAdditive, src, weight, t)
}

// Bottleneck runs the KindBottleneck search from src (see the package-
// level Bottleneck) and materializes it into t (allocated when nil); it
// allocates nothing in steady state once its per-vertex key buffers
// have grown to the graph's path lengths.
//
// The search is Dijkstra over the leximax key: a path's key is its edge
// weights sorted descending, compared lexicographically with a shorter
// prefix ranking below its extensions, and among arcs achieving a
// vertex's final key the largest edge ID wins — the canonical tie-break
// shared with the additive Dijkstra. Leximax is the refinement of the
// minimax value (the key's first element, which Tree.Dist reports) that
// makes the canonical tree both well defined and reusable:
//
//   - Appending an edge strictly grows a key, so predecessor keys
//     strictly decrease along every tree path and the canonical tree is
//     acyclic by construction (a pure minimax value-tie retarget can
//     close predecessor cycles).
//   - A vertex's key is monotone non-decreasing under any weight
//     increase — keys keep every weight on the path, so no increase can
//     hide behind a dominating maximum. Scalar secondaries (hop count,
//     weight sum) lack exactly this: worsening a vertex's minimax can
//     shrink its secondary and mint brand-new tie-achievers elsewhere,
//     which is fatal to the Incremental cache's bit-identity contract
//     under target-restricted recording.
func (s *Scratch) Bottleneck(g *graph.Graph, src int, weight WeightFunc, t *Tree) *Tree {
	return s.tree(g, KindBottleneck, src, weight, t)
}

// tree runs a full search of the given kind and materializes it.
func (s *Scratch) tree(g *graph.Graph, kind TreeKind, src int, weight WeightFunc, t *Tree) *Tree {
	s.search(g.Freeze(), kind, int32(src), -1, weight, nil)
	return s.fill(t, src, g.NumVertices())
}

// ShortestPathTo answers a single-target query: the canonical shortest
// path from src to dst under nonnegative weights, its distance, and
// whether dst is reachable. It is the early-exit form of Dijkstra — the
// search stops once every vertex at least as close as dst has been
// settled, rather than materializing a whole tree — and its answer is
// bit-identical to s.Dijkstra(...) followed by Tree.PathTo(dst) /
// Tree.Dist[dst]: the largest-edge-ID tie-break of every vertex on the
// path is resolved by relaxations out of vertices no farther than dst,
// all of which have been processed when the search stops. The mechanism
// layer's allocation and critical-value runs use this query (via
// Incremental.PathTo) instead of full trees.
func (s *Scratch) ShortestPathTo(g *graph.Graph, src, dst int, weight WeightFunc) ([]int, float64, bool) {
	return s.pathTo(g, KindAdditive, src, dst, weight, nil)
}

// ShortestPathToALT is ShortestPathTo pruned by ALT (A*, landmarks,
// triangle inequality) lower bounds: the landmark tables supply a
// consistent potential that steers the search toward dst and lets it
// stop after settling a fraction of the vertices the plain early-exit
// search would (see altSlack). The landmarks must have been built on a
// lower bound of weight (see BuildLandmarks); under that contract the
// answer is bit-identical to ShortestPathTo, which is what it runs when
// lm is nil or empty. The number of vertices the run touched is
// readable afterwards via Touched.
func (s *Scratch) ShortestPathToALT(g *graph.Graph, src, dst int, weight WeightFunc, lm *Landmarks) ([]int, float64, bool) {
	return s.pathTo(g, KindAdditive, src, dst, weight, lm.potential(int32(dst)))
}

// BottleneckPathTo is the KindBottleneck form of ShortestPathTo: the
// canonical minimax path from src to dst, its bottleneck value, and
// whether dst is reachable, bit-identical to s.Bottleneck(...) followed
// by Tree.PathTo(dst) / Tree.Dist[dst]. The leximax key lets it exit
// even earlier than the additive search: it stops the moment dst pops.
func (s *Scratch) BottleneckPathTo(g *graph.Graph, src, dst int, weight WeightFunc) ([]int, float64, bool) {
	return s.pathTo(g, KindBottleneck, src, dst, weight, nil)
}

// BottleneckPathToALT is BottleneckPathTo pruned by landmark-derived
// minimax lower bounds: the bottleneck tables (Landmarks.WithBottleneck)
// supply a consistent minimax potential that steers the leximax search
// toward dst. f is non-decreasing and the leximax key strictly
// increasing along the canonical path, so the search still exits the
// moment dst pops. The landmarks must have been built on a lower bound
// of weight; under that contract the answer — path, value, and every
// canonical tie-break — is bit-identical to BottleneckPathTo, which is
// what it runs when lm is nil, empty, or lacks the minimax tables.
func (s *Scratch) BottleneckPathToALT(g *graph.Graph, src, dst int, weight WeightFunc, lm *Landmarks) ([]int, float64, bool) {
	return s.pathTo(g, KindBottleneck, src, dst, weight, lm.bottleneckPotential(int32(dst)))
}

// pathTo runs a single-target search of the given kind and reads the
// path and its length off the scratch state.
func (s *Scratch) pathTo(g *graph.Graph, kind TreeKind, src, dst int, weight WeightFunc, pot func(int32) float64) ([]int, float64, bool) {
	if !s.search(g.Freeze(), kind, int32(src), int32(dst), weight, pot) {
		return nil, math.Inf(1), false
	}
	return s.pathOut(src, dst), s.dist[dst], true
}

// Touched reports how many vertices the scratch's last run reached —
// the work profile the oracle metrics aggregate.
func (s *Scratch) Touched() int { return len(s.order) }

// pathOut materializes the settled prev chain from src to dst as edge
// IDs in path order.
func (s *Scratch) pathOut(src, dst int) []int {
	var rev []int
	for v := dst; v != src; v = int(s.prevV[v]) {
		rev = append(rev, int(s.prevE[v]))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// fill materializes the run into a Tree, reusing t's slices when
// possible.
func (s *Scratch) fill(t *Tree, src, n int) *Tree {
	if t == nil {
		t = &Tree{}
	}
	t.Source = src
	t.Dist = resizeF64(t.Dist, n)
	t.PrevEdge = resizeInt(t.PrevEdge, n)
	t.PrevVert = resizeInt(t.PrevVert, n)
	inf := math.Inf(1)
	for v := 0; v < n; v++ {
		t.Dist[v] = inf
		t.PrevEdge[v] = -1
		t.PrevVert[v] = -1
	}
	for _, v := range s.order {
		t.Dist[v] = s.dist[v]
		t.PrevEdge[v] = int(s.prevE[v])
		t.PrevVert[v] = int(s.prevV[v])
	}
	return t
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// push inserts v (whose priority is dist[v]) into the heap.
func (s *Scratch) push(v int32) {
	s.heap = append(s.heap, v)
	s.pos[v] = int32(len(s.heap) - 1)
	s.up(len(s.heap) - 1)
}

// decrease restores heap order after dist[v] dropped; a finalized
// vertex (possible only with ill-formed negative weights) is re-opened.
func (s *Scratch) decrease(v int32) {
	if i := s.pos[v]; i >= 0 {
		s.up(int(i))
	} else {
		s.push(v)
	}
}

// pop removes and returns the vertex with minimum dist.
func (s *Scratch) pop() int32 {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.pos[s.heap[0]] = 0
	s.heap = s.heap[:last]
	s.pos[top] = -1
	if last > 0 {
		s.down(0)
	}
	return top
}

// less orders heap entries: by the potential-adjusted fsc key in A*
// runs, then by dist, then — in leximax runs — by the full keys
// (additive runs never read s.keys). In additive A* any tie order is
// correct (A* with a consistent potential is label-setting regardless),
// but minimax A* runs are both A* and leximax, and there the final lex
// fall-through is load-bearing: it guarantees every strictly lex-smaller
// label on the canonical path settles before dst pops, so the early
// exit keeps the leximax tie-breaks bit-identical.
func (s *Scratch) less(a, b int32) bool {
	if s.pot != nil {
		if fa, fb := s.fsc[a], s.fsc[b]; fa != fb {
			return fa < fb
		}
	}
	if da, db := s.dist[a], s.dist[b]; da != db {
		return da < db
	}
	return s.lex && lexLess(s.keys[a], s.keys[b])
}

// key is v's primary heap key: fsc in A* runs, dist otherwise.
func (s *Scratch) key(v int32) float64 {
	if s.pot != nil {
		return s.fsc[v]
	}
	return s.dist[v]
}

func (s *Scratch) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(s.heap[i], s.heap[parent]) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *Scratch) down(i int) {
	for {
		first := 4*i + 1
		if first >= len(s.heap) {
			return
		}
		small := i
		end := first + 4
		if end > len(s.heap) {
			end = len(s.heap)
		}
		for c := first; c < end; c++ {
			if s.less(s.heap[c], s.heap[small]) {
				small = c
			}
		}
		if small == i {
			return
		}
		s.swap(i, small)
		i = small
	}
}

func (s *Scratch) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]] = int32(i)
	s.pos[s.heap[j]] = int32(j)
}

// Pool is a free list of Scratches for concurrent shortest-path
// workers: each worker Gets a scratch, runs any number of searches, and
// Puts it back. The zero value is ready to use; a single Pool may be
// shared by many solves (e.g. one per engine).
type Pool struct {
	p sync.Pool
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a scratch sized for at least n vertices.
func (p *Pool) Get(n int) *Scratch {
	if s, ok := p.p.Get().(*Scratch); ok {
		s.grow(n)
		return s
	}
	return NewScratch(n)
}

// Put returns a scratch to the pool.
func (p *Pool) Put(s *Scratch) {
	if s != nil {
		p.p.Put(s)
	}
}

// defaultPool backs the package-level Dijkstra convenience entry point.
var defaultPool = NewPool()
