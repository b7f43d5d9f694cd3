package analytic

import (
	"fmt"

	"stratmatch/internal/graph"
	"stratmatch/internal/par"
	"stratmatch/internal/rng"
)

// MonteCarloResult is the empirical counterpart of the analytic model:
// choice distributions measured on true stable matchings over sampled
// Erdős–Rényi graphs (the paper's Figure 9 "simulated" curves, which took
// the authors "several weeks" at 10⁶ draws; the sample count here is a
// parameter).
type MonteCarloResult struct {
	N       int
	P       float64
	B0      int
	Peer    int
	Samples int
	// ChoiceDist[c−1][j] estimates Dc(peer, j).
	ChoiceDist [][]float64
	// MatchedCount[c−1] is the number of samples in which the peer's c-th
	// slot was filled.
	MatchedCount []int
}

// MonteCarloChoices is MonteCarloChoicesWorkers with the default worker
// count (GOMAXPROCS).
func MonteCarloChoices(n int, p float64, b0, peer, samples int, seed uint64) (*MonteCarloResult, error) {
	return MonteCarloChoicesWorkers(n, p, b0, peer, samples, seed, 0)
}

// MonteCarloChoicesWorkers samples `samples` G(n, p) graphs, computes the
// target peer's mates in the stable b0-matching of each (Algorithm 1), and
// histograms the ranks of its 1st..b0-th choices. Sampling fans out over
// `workers` goroutines (0 = GOMAXPROCS).
//
// No graph is built: each sample runs Algorithm 1 on the G(n, p) edge
// stream and stops once the tracked peer is full (see stableMates). Every
// sample draws from its own sub-stream derived from (seed, sample index), so
// stopping one early changes no other, and the merged histograms are integer
// counts: the result is identical for any worker count and any scheduling —
// one seed, one answer, on a laptop or a 128-core runner.
func MonteCarloChoicesWorkers(n int, p float64, b0, peer, samples int, seed uint64, workers int) (*MonteCarloResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("analytic: population %d", n)
	}
	if peer < 0 || peer >= n {
		return nil, fmt.Errorf("analytic: peer %d out of range [0,%d)", peer, n)
	}
	if b0 < 1 {
		return nil, fmt.Errorf("analytic: b0 = %d", b0)
	}
	if samples < 1 {
		return nil, fmt.Errorf("analytic: samples = %d", samples)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("analytic: probability %v out of [0,1]", p)
	}

	workers = par.Workers(samples, workers)
	type partial struct {
		counts  [][]int
		matched []int
		avail   []int // free slots per peer in the current sample
		mates   []int // the tracked peer's mates, best first
	}
	partials := make([]partial, workers)
	for w := range partials {
		pt := &partials[w]
		pt.counts = make([][]int, b0)
		for c := range pt.counts {
			pt.counts[c] = make([]int, n)
		}
		pt.matched = make([]int, b0)
		pt.avail = make([]int, n)
		pt.mates = make([]int, 0, b0)
	}
	par.ForEachWorker(samples, workers, func(w, s int) {
		pt := &partials[w]
		r := rng.New(seed + uint64(s)*0x9e3779b97f4a7c15)
		pt.mates = stableMates(n, p, b0, peer, r, pt.avail, pt.mates[:0])
		for c, mate := range pt.mates {
			pt.counts[c][mate]++
			pt.matched[c]++
		}
	})

	res := &MonteCarloResult{
		N:            n,
		P:            p,
		B0:           b0,
		Peer:         peer,
		Samples:      samples,
		ChoiceDist:   make([][]float64, b0),
		MatchedCount: make([]int, b0),
	}
	for c := 0; c < b0; c++ {
		res.ChoiceDist[c] = make([]float64, n)
		for _, pt := range partials {
			res.MatchedCount[c] += pt.matched[c]
			for j, cnt := range pt.counts[c] {
				res.ChoiceDist[c][j] += float64(cnt)
			}
		}
		for j := range res.ChoiceDist[c] {
			res.ChoiceDist[c][j] /= float64(samples)
		}
	}
	return res, nil
}

// stableMates appends to mates the tracked peer's mates, best first, in the
// stable b0-matching of one G(n, p) draw from r — what
// core.StableUniform(graph.ErdosRenyi(n, p, r), b0).Mates(peer) returns —
// without building the graph. avail is scratch of length n.
//
// It runs Algorithm 1 greedily on the graph.ErdosRenyiEdges stream: match
// {v, w} when both still have a free slot. Algorithm 1 takes edges
// best-endpoint-major; the walk yields them worst-endpoint-major. Both
// orders list every peer's edges in that peer's own preference order, and a
// greedy decision depends only on the decisions made earlier at its two
// endpoints, so by induction over that order every edge gets the same
// decision and the matched set is identical. Edges after the tracked peer
// fills cannot change its mates, so the walk stops there.
func stableMates(n int, p float64, b0, peer int, r *rng.RNG, avail, mates []int) []int {
	for i := range avail {
		avail[i] = b0
	}
	for v, w := range graph.ErdosRenyiEdges(n, p, r) {
		if avail[v] == 0 || avail[w] == 0 {
			continue
		}
		avail[v]--
		avail[w]--
		switch peer {
		case v:
			mates = append(mates, w)
		case w:
			mates = append(mates, v)
		default:
			continue
		}
		if avail[peer] == 0 {
			break
		}
	}
	return mates
}
