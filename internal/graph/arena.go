package graph

import "stratmatch/internal/rng"

// Arena owns the reusable buffers behind repeated graph constructions: the
// two-pass Erdős–Rényi sampler's edge list, degree counts and adjacency
// slab, plus the Adjacency headers themselves. Monte-Carlo loops that draw
// thousands of G(n, p) graphs hold one Arena per worker so a draw costs zero
// steady-state allocations while producing byte-identical graphs. (A loop
// that needs only one pass over the edges should range over ErdosRenyiEdges
// instead and build no graph.)
//
// The *Adjacency returned by an Arena method is owned by the arena: it is
// valid until the arena's next call, which overwrites it in place (Clone a
// draw that must survive). The zero Arena is ready to use; an Arena is
// single-goroutine — parallel fan-outs keep one per worker.
type Arena struct {
	g     Adjacency
	edges []uint64
	deg   []int32
	slab  []int
}

// reset resizes the arena's adjacency to n edgeless peers.
func (a *Arena) reset(n int) *Adjacency {
	g := &a.g
	if cap(g.adj) < n {
		g.adj = make([][]int, n)
	}
	g.adj = g.adj[:n]
	for i := range g.adj {
		g.adj[i] = nil
	}
	return g
}

// intSlab returns the arena's int slab resized to n, reallocating only on
// growth.
func (a *Arena) intSlab(n int) []int {
	if cap(a.slab) < n {
		a.slab = make([]int, n)
	}
	a.slab = a.slab[:n]
	return a.slab
}

// ErdosRenyi is graph.ErdosRenyi sampling into the arena: the same
// ErdosRenyiEdges walk, same stream consumption from r, identical output —
// but the edge buffer, degree counts, adjacency slab and headers are
// recycled across draws.
func (a *Arena) ErdosRenyi(n int, p float64, r *rng.RNG) *Adjacency {
	g := a.reset(n)
	if !(p > 0) || n < 2 {
		return g
	}
	if a.edges == nil {
		a.edges = make([]uint64, 0, int(min(p, 1)*float64(n)*float64(n-1)/2)+16)
	}
	edges := a.edges[:0]
	if cap(a.deg) < n {
		a.deg = make([]int32, n)
	}
	deg := a.deg[:n]
	for i := range deg {
		deg[i] = 0
	}
	for v, w := range ErdosRenyiEdges(n, p, r) {
		edges = append(edges, uint64(v)<<32|uint64(w))
		deg[v]++
		deg[w]++
	}
	a.edges = edges
	// Carve per-peer lists out of the recycled slab with 25%+2 headroom per
	// peer: churn simulations detach and re-attach peers through ints.Insert,
	// and exact-capacity segments forced a private reallocation on the first
	// insert into every touched list. Immutable Monte-Carlo draws pay only
	// the slightly larger (recycled) slab.
	total := 0
	for i := 0; i < n; i++ {
		total += int(deg[i]) + int(deg[i])/4 + 2
	}
	slab := a.intSlab(total)
	off := 0
	for i := 0; i < n; i++ {
		d := int(deg[i])
		g.adj[i] = slab[off : off : off+d+d/4+2]
		off += d + d/4 + 2
	}
	// The walk's lexicographic edge order keeps plain tail appends sorted.
	for _, e := range edges {
		v, w := int(e>>32), int(e&0xffffffff)
		g.adj[v] = append(g.adj[v], w)
		g.adj[w] = append(g.adj[w], v)
	}
	return g
}

// ErdosRenyiMeanDegree is graph.ErdosRenyiMeanDegree sampling into the
// arena.
func (a *Arena) ErdosRenyiMeanDegree(n int, d float64, r *rng.RNG) *Adjacency {
	if n < 2 {
		return a.reset(n)
	}
	return a.ErdosRenyi(n, d/float64(n-1), r)
}

// Relabel builds the graph with every peer i renamed to rankOf[i] (a
// permutation of 0..n−1), reusing the arena's buffers: degree counts first,
// one slab carve, then a per-list insertion sort. The gossip experiment
// rebuilds a rank-space copy of its acceptance graph once per measurement;
// incremental sorted inserts with slice regrowth used to dominate that cost.
func (a *Arena) Relabel(g Graph, rankOf []int) *Adjacency {
	n := g.N()
	out := a.reset(n)
	if cap(a.deg) < n {
		a.deg = make([]int32, n)
	}
	deg := a.deg[:n]
	total := 0
	for i := 0; i < n; i++ {
		d := g.Degree(i)
		deg[rankOf[i]] = int32(d)
		total += d
	}
	slab := a.intSlab(total)
	off := 0
	for i := 0; i < n; i++ {
		d := int(deg[i])
		out.adj[i] = slab[off : off : off+d]
		off += d
	}
	for i := 0; i < n; i++ {
		ri := rankOf[i]
		for _, j := range g.Neighbors(i) {
			out.adj[ri] = append(out.adj[ri], rankOf[j])
		}
	}
	// Neighbor lists must be sorted (rank order); degrees are
	// experiment-scale, so insertion sort beats pulling in sort.Ints.
	for i := 0; i < n; i++ {
		lst := out.adj[i]
		for x := 1; x < len(lst); x++ {
			for y := x; y > 0 && lst[y-1] > lst[y]; y-- {
				lst[y-1], lst[y] = lst[y], lst[y-1]
			}
		}
	}
	return out
}
