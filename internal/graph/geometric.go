package graph

import (
	"math"
	"sync/atomic"

	"stratmatch/internal/rng"
)

// geoSkip samples Geometric(p) gap lengths — P(G = k) = p·(1−p)^k for
// k ≥ 0 — for the Batagelj–Brandes edge-skipping walk (ErdosRenyiEdges).
// The classic formulation ⌊log(1−u)/log(1−p)⌋ costs a logarithm per edge;
// this sampler replaces it with Chen–Asau guide-table inversion: one
// uniform, one table lookup, and on average about one comparison. The gap
// draw is still the bulk of a G(n, p) walk (about 70% of Figure 9's
// streamed Monte-Carlo). The table covers all but a ~e⁻⁸ sliver of the
// mass; draws landing in the tail recurse through the memoryless property
// with the exact log formula, so the sampled distribution is Geometric(p)
// exactly — not an approximation.
type geoSkip struct {
	cdf   []float64 // cdf[k] = P(G ≤ k) = 1 − (1−p)^(k+1)
	guide []int32   // guide[j] = min{k : cdf[k] ≥ j/m}
	logq  float64   // log(1−p), for the tail fallback
	m     int
	p     float64
}

// geoCache holds the most recently built table. A geoSkip is immutable
// after construction, so sharing one across goroutines is safe; Monte-
// Carlo sweeps walk thousands of G(n, p) draws at a single p, and this
// one-entry cache makes the table a one-time cost instead of a per-draw
// one (concurrent sweeps at different p stay correct, merely rebuilding).
var geoCache atomic.Pointer[geoSkip]

// geoSkipFor returns a table for p, reusing the cached one when it
// matches.
func geoSkipFor(p float64) *geoSkip {
	if g := geoCache.Load(); g != nil && g.p == p {
		return g
	}
	g := newGeoSkip(p)
	geoCache.Store(g)
	return g
}

// newGeoSkip builds the inversion tables for edge probability p ∈ (0, 1).
// The table size scales as ~8/p (clamped to [64, 4096] and rounded to a
// power of two), putting the tail probability (1−p)^m near e⁻⁸ for
// mid-range p; for very small p the clamp keeps the table cheap and the
// log fallback absorbs the (still exact) tail.
func newGeoSkip(p float64) *geoSkip {
	m := 64
	for float64(m) < 8/p && m < 4096 {
		m *= 2
	}
	g := &geoSkip{
		cdf:   make([]float64, m),
		guide: make([]int32, m+1),
		logq:  math.Log1p(-p),
		m:     m,
		p:     p,
	}
	q := 1 - p
	pow := 1.0 // (1−p)^k
	for k := 0; k < m; k++ {
		pow *= q
		g.cdf[k] = 1 - pow
	}
	k := int32(0)
	for j := 0; j <= m; j++ {
		target := float64(j) / float64(m)
		for k < int32(m)-1 && g.cdf[k] < target {
			k++
		}
		g.guide[j] = k
	}
	return g
}

// next draws one Geometric(p) sample.
func (g *geoSkip) next(r *rng.RNG) int {
	u := r.Float64()
	if u <= g.cdf[g.m-1] {
		k := int(g.guide[int(u*float64(g.m))])
		for g.cdf[k] < u {
			k++
		}
		return k
	}
	// Tail: conditioned on G ≥ m, G − m is Geometric(p) again
	// (memorylessness), sampled by the exact log inversion on a fresh
	// uniform — rescaling u would lose precision in the 1−cdf sliver.
	return g.m + g.tailNext(r)
}

// tailNext is the classic exact inversion ⌊log(1−u)/log(1−p)⌋, used only
// for the rare past-the-table draws.
func (g *geoSkip) tailNext(r *rng.RNG) int {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return int(math.Log1p(-u) / g.logq)
}
