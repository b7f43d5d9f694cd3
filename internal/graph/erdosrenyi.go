package graph

import (
	"iter"

	"stratmatch/internal/rng"
)

// ErdosRenyiEdges yields the edges of one G(n, p) draw: every unordered pair
// is an edge independently with probability p. Edges come as (v, w) with
// w < v, in lexicographic order — v ascending, and w ascending within a v —
// so each peer's edges arrive in its own preference order (best partner
// first).
//
// For p < 1 this is the Batagelj–Brandes walk over the strictly-lower-
// triangular adjacency matrix, skipping ahead by Geometric(p) gaps in
// O(n + m) instead of O(n²). The gaps come from a guide-table inversion
// sampler (see geoSkip) instead of the textbook log formula. p ≥ 1 yields
// every pair and draws nothing from r; p ≤ 0 (or NaN) and n < 2 yield
// nothing.
func ErdosRenyiEdges(n int, p float64, r *rng.RNG) iter.Seq2[int, int] {
	return func(yield func(v, w int) bool) {
		switch {
		case !(p > 0) || n < 2:
			return
		case p >= 1:
			for v := 1; v < n; v++ {
				for w := 0; w < v; w++ {
					if !yield(v, w) {
						return
					}
				}
			}
			return
		}
		gs := geoSkipFor(p)
		v, w := 1, -1
		for {
			w += 1 + gs.next(r)
			for w >= v {
				w -= v
				if v++; v >= n {
					return
				}
			}
			if !yield(v, w) {
				return
			}
		}
	}
}

// ErdosRenyi samples a loopless symmetric G(n, p) graph from the
// ErdosRenyiEdges walk. The result is a mutable Adjacency so churn
// experiments can detach and re-attach peers.
//
// Sampling is two-pass: edges are drawn into a flat buffer first, then the
// exact-size adjacency lists are carved out of one backing slab and
// tail-filled in sorted order — incremental sorted inserts with slice
// regrowth used to dominate repeated-draw profiles.
// Loops that draw many graphs should hold a graph.Arena and call its
// ErdosRenyi method instead: same sampler, zero steady-state allocations.
func ErdosRenyi(n int, p float64, r *rng.RNG) *Adjacency {
	var a Arena
	g := a.ErdosRenyi(n, p, r)
	// Drop the sampler scratch: the returned graph is an interior pointer
	// into the arena, and a long-lived one-shot graph must not pin the edge
	// buffer (8 B/edge) and degree counts alongside its adjacency slab.
	a.edges, a.deg = nil, nil
	return g
}

// ErdosRenyiMeanDegree samples G(n, d) in the paper's parameterization:
// d is the expected degree, so each edge exists with probability d/(n−1).
func ErdosRenyiMeanDegree(n int, d float64, r *rng.RNG) *Adjacency {
	if n < 2 {
		return NewAdjacency(n)
	}
	return ErdosRenyi(n, d/float64(n-1), r)
}

// AttachUniform connects peer i to every other currently-attached peer with
// probability p. It is used by churn to re-introduce a detached peer with a
// fresh Erdős–Rényi neighborhood.
func AttachUniform(g *Adjacency, i int, p float64, r *rng.RNG) {
	for j := 0; j < g.N(); j++ {
		if j != i && r.Bool(p) {
			g.AddEdge(i, j)
		}
	}
}
