// Package graph provides edge-capacitated directed and undirected graphs,
// the substrate for the unsplittable flow problem. Vertices are dense
// integers 0..n-1 and edges are referred to by dense integer IDs, so that
// per-edge state (capacities, dual prices, flow loads) can live in plain
// slices indexed by edge ID.
package graph

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Edge is a capacitated edge. For a directed graph it carries flow only
// From -> To; for an undirected graph the single capacity is shared by
// traffic in both directions, matching the paper's model.
type Edge struct {
	From, To int
	Capacity float64
}

// Arc is a traversal step used by adjacency lists: crossing edge Edge
// brings you to vertex To. In an undirected graph each edge produces two
// arcs sharing the same edge ID (and hence the same capacity and price).
type Arc struct {
	Edge int // edge ID, index into the graph's edge slice
	To   int // head vertex reached by crossing the edge
}

// Graph is an edge-capacitated multigraph. The zero value is an empty
// directed graph with no vertices; use New or NewUndirected for graphs
// with a fixed vertex count.
type Graph struct {
	directed bool
	n        int
	edges    []Edge
	out      [][]Arc

	// csr is the frozen compressed-sparse-row adjacency (see Freeze). It
	// is an atomic pointer so Freeze may race with concurrent readers
	// (e.g. two engine jobs sharing one instance); topology mutations are
	// not concurrency-safe, same as the rest of the struct.
	csr      atomic.Pointer[CSR]
	rcsr     atomic.Pointer[CSR]
	freezeMu sync.Mutex
}

// CSR is a frozen compressed-sparse-row view of a graph's adjacency:
// the arcs leaving vertex v are the index range [Start[v], Start[v+1])
// of the flat Head/EdgeID slices. It is immutable once built and
// contains no capacities or prices, so capacity updates (SetCapacity,
// ScaleCapacities) do not invalidate it — only topology mutations do.
//
// The flat int32 layout keeps the Dijkstra inner loop on two
// cache-friendly streams instead of chasing per-vertex slice headers.
type CSR struct {
	Start  []int32 // len NumVertices+1; arc index range per vertex
	Head   []int32 // arc head vertex (len = total arcs)
	EdgeID []int32 // arc edge ID, parallel to Head
}

// NumArcs returns the total number of arcs (twice the edge count for an
// undirected graph).
func (c *CSR) NumArcs() int { return len(c.Head) }

// Freeze builds (once) the graph's CSR adjacency and returns it.
// Calling Freeze again without an intervening topology mutation returns
// the same CSR; mutating the topology (AddVertex, AddEdge,
// SubdivideEdge) drops the frozen form, so callers must re-freeze after
// construction changes. Freeze is safe to call from concurrent readers.
func (g *Graph) Freeze() *CSR {
	if c := g.csr.Load(); c != nil {
		return c
	}
	g.freezeMu.Lock()
	defer g.freezeMu.Unlock()
	if c := g.csr.Load(); c != nil {
		return c
	}
	arcs := 0
	for _, a := range g.out {
		arcs += len(a)
	}
	c := &CSR{
		Start:  make([]int32, g.n+1),
		Head:   make([]int32, arcs),
		EdgeID: make([]int32, arcs),
	}
	k := int32(0)
	for v, out := range g.out {
		c.Start[v] = k
		for _, a := range out {
			c.Head[k] = int32(a.To)
			c.EdgeID[k] = int32(a.Edge)
			k++
		}
	}
	c.Start[g.n] = k
	g.csr.Store(c)
	return c
}

// Frozen returns the graph's CSR adjacency if Freeze has been called
// since the last topology mutation, else nil. It never builds.
func (g *Graph) Frozen() *CSR { return g.csr.Load() }

// FreezeReverse builds (once) the reverse CSR adjacency — the arcs
// *entering* each vertex, with edge IDs preserved — and returns it.
// Backward searches (the landmark tables' distances to each landmark)
// traverse it in place of per-query reversal. For an undirected graph the adjacency is
// symmetric, so the forward CSR itself is returned. Like Freeze it is
// invalidated by topology mutations and safe for concurrent readers.
func (g *Graph) FreezeReverse() *CSR {
	if !g.directed {
		return g.Freeze()
	}
	if c := g.rcsr.Load(); c != nil {
		return c
	}
	g.freezeMu.Lock()
	defer g.freezeMu.Unlock()
	if c := g.rcsr.Load(); c != nil {
		return c
	}
	deg := make([]int32, g.n+1)
	arcs := 0
	for _, out := range g.out {
		for _, a := range out {
			deg[a.To+1]++
			arcs++
		}
	}
	c := &CSR{
		Start:  make([]int32, g.n+1),
		Head:   make([]int32, arcs),
		EdgeID: make([]int32, arcs),
	}
	for v := 0; v < g.n; v++ {
		c.Start[v+1] = c.Start[v] + deg[v+1]
	}
	next := make([]int32, g.n)
	copy(next, c.Start[:g.n])
	for v, out := range g.out {
		for _, a := range out {
			k := next[a.To]
			next[a.To]++
			c.Head[k] = int32(v)
			c.EdgeID[k] = int32(a.Edge)
		}
	}
	g.rcsr.Store(c)
	return c
}

// FrozenReverse returns the reverse CSR if FreezeReverse has been
// called since the last topology mutation, else nil. For an undirected
// graph it mirrors Frozen.
func (g *Graph) FrozenReverse() *CSR {
	if !g.directed {
		return g.csr.Load()
	}
	return g.rcsr.Load()
}

// unfreeze drops the frozen CSR; every topology mutator calls it.
func (g *Graph) unfreeze() {
	g.csr.Store(nil)
	g.rcsr.Store(nil)
}

// New returns an empty directed graph with n vertices.
func New(n int) *Graph {
	return &Graph{directed: true, n: n, out: make([][]Arc, n)}
}

// NewUndirected returns an empty undirected graph with n vertices.
func NewUndirected(n int) *Graph {
	return &Graph{directed: false, n: n, out: make([][]Arc, n)}
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges. An undirected edge counts once.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddVertex appends a new isolated vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.unfreeze()
	g.out = append(g.out, nil)
	g.n++
	return g.n - 1
}

// AddEdge adds an edge from u to v with the given capacity and returns its
// edge ID. In an undirected graph the edge is traversable both ways but
// has a single shared capacity. AddEdge panics if u or v is out of range;
// graph construction errors are programming errors, not runtime input.
func (g *Graph) AddEdge(u, v int, capacity float64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0,%d)", u, v, g.n))
	}
	g.unfreeze()
	id := len(g.edges)
	g.edges = append(g.edges, Edge{From: u, To: v, Capacity: capacity})
	g.out[u] = append(g.out[u], Arc{Edge: id, To: v})
	if !g.directed {
		g.out[v] = append(g.out[v], Arc{Edge: id, To: u})
	}
	return id
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns the underlying edge slice. Callers must not modify it;
// use SetCapacity to adjust capacities.
func (g *Graph) Edges() []Edge { return g.edges }

// SetCapacity replaces the capacity of edge id.
func (g *Graph) SetCapacity(id int, capacity float64) { g.edges[id].Capacity = capacity }

// ScaleCapacities multiplies every capacity by f.
func (g *Graph) ScaleCapacities(f float64) {
	for i := range g.edges {
		g.edges[i].Capacity *= f
	}
}

// OutArcs returns the arcs leaving vertex v (in an undirected graph, all
// arcs incident to v). Callers must not modify the returned slice.
func (g *Graph) OutArcs(v int) []Arc { return g.out[v] }

// Other returns the endpoint of edge id that is not v. It panics if v is
// not an endpoint of the edge.
func (g *Graph) Other(id, v int) int {
	e := g.edges[id]
	switch v {
	case e.From:
		return e.To
	case e.To:
		return e.From
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d", v, id))
}

// MinCapacity returns the minimum edge capacity, the quantity the paper
// calls B (after demand normalization). It returns 0 for an edgeless graph.
func (g *Graph) MinCapacity() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	min := g.edges[0].Capacity
	for _, e := range g.edges[1:] {
		if e.Capacity < min {
			min = e.Capacity
		}
	}
	return min
}

// MaxCapacity returns the maximum edge capacity (0 for an edgeless graph).
func (g *Graph) MaxCapacity() float64 {
	max := 0.0
	for _, e := range g.edges {
		if e.Capacity > max {
			max = e.Capacity
		}
	}
	return max
}

// Clone returns a deep copy of the graph. A frozen CSR is shared with
// the clone (it is immutable and topology-only); mutating either copy
// drops only that copy's frozen form.
func (g *Graph) Clone() *Graph {
	c := &Graph{directed: g.directed, n: g.n}
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	c.out = make([][]Arc, len(g.out))
	for v, arcs := range g.out {
		c.out[v] = make([]Arc, len(arcs))
		copy(c.out[v], arcs)
	}
	c.csr.Store(g.csr.Load())
	c.rcsr.Store(g.rcsr.Load())
	return c
}

// Validate checks structural invariants: endpoint ranges, positive
// capacities, and adjacency consistency.
func (g *Graph) Validate() error {
	if g.n < 0 {
		return errors.New("graph: negative vertex count")
	}
	if len(g.out) != g.n {
		return fmt.Errorf("graph: adjacency size %d != vertex count %d", len(g.out), g.n)
	}
	for id, e := range g.edges {
		if e.From < 0 || e.From >= g.n || e.To < 0 || e.To >= g.n {
			return fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range [0,%d)", id, e.From, e.To, g.n)
		}
		if e.Capacity <= 0 {
			return fmt.Errorf("graph: edge %d has non-positive capacity %g", id, e.Capacity)
		}
	}
	wantArcs := len(g.edges)
	if !g.directed {
		wantArcs *= 2
	}
	total := 0
	for v, arcs := range g.out {
		for _, a := range arcs {
			if a.Edge < 0 || a.Edge >= len(g.edges) {
				return fmt.Errorf("graph: vertex %d has arc with bad edge ID %d", v, a.Edge)
			}
			e := g.edges[a.Edge]
			if g.directed {
				if e.From != v || e.To != a.To {
					return fmt.Errorf("graph: arc at %d disagrees with edge %d", v, a.Edge)
				}
			} else if !(e.From == v && e.To == a.To) && !(e.To == v && e.From == a.To) {
				return fmt.Errorf("graph: undirected arc at %d disagrees with edge %d", v, a.Edge)
			}
			total++
		}
	}
	if total != wantArcs {
		return fmt.Errorf("graph: have %d arcs, want %d", total, wantArcs)
	}
	return nil
}

// SubdivideEdge replaces edge id by a path of k >= 1 edges through k-1
// fresh intermediate vertices, each new edge inheriting the original
// capacity. With k == 1 the edge is unchanged. It returns the IDs of the
// path's edges in order from the original tail to the original head.
//
// Subdivision is used by the paper's hardened lower-bound instance
// (Theorem 3.11), where edge (s_i, v_j) becomes a path of iℓ+1−j edges.
// The original edge ID is reused for the first path segment so edge IDs
// stay dense.
func (g *Graph) SubdivideEdge(id, k int) []int {
	if k < 1 {
		panic("graph: SubdivideEdge requires k >= 1")
	}
	if k == 1 {
		return []int{id}
	}
	e := g.edges[id]
	// Remove the arcs of the original edge; they are re-added segment by
	// segment below.
	g.removeArcs(id)
	ids := make([]int, 0, k)
	prev := e.From
	for seg := 0; seg < k; seg++ {
		var next int
		if seg == k-1 {
			next = e.To
		} else {
			next = g.AddVertex()
		}
		if seg == 0 {
			// Reuse the original edge slot for the first segment.
			g.edges[id] = Edge{From: prev, To: next, Capacity: e.Capacity}
			g.out[prev] = append(g.out[prev], Arc{Edge: id, To: next})
			if !g.directed {
				g.out[next] = append(g.out[next], Arc{Edge: id, To: prev})
			}
			ids = append(ids, id)
		} else {
			ids = append(ids, g.AddEdge(prev, next, e.Capacity))
		}
		prev = next
	}
	return ids
}

func (g *Graph) removeArcs(id int) {
	g.unfreeze()
	e := g.edges[id]
	g.out[e.From] = dropArc(g.out[e.From], id)
	if !g.directed {
		g.out[e.To] = dropArc(g.out[e.To], id)
	}
}

func dropArc(arcs []Arc, edge int) []Arc {
	w := arcs[:0]
	for _, a := range arcs {
		if a.Edge != edge {
			w = append(w, a)
		}
	}
	return w
}

// String returns a short human-readable description.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("%s graph: %d vertices, %d edges", kind, g.n, len(g.edges))
}
