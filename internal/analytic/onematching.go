// Package analytic implements the paper's Section 5 independent-matching
// model on Erdős–Rényi acceptance graphs: the exact mate-rank distribution
// for tiny populations, the approximate recurrences of Algorithms 2
// (1-matching) and 3 (b0-matching), the fluid limit, and Monte-Carlo
// validation against true stable matchings on sampled graphs.
//
// Peers are ranked 0 .. n−1 with 0 the best, matching the rest of the
// repository (the paper uses 1-based labels).
package analytic

import (
	"fmt"
)

// OneMatchingResult holds the output of the independent 1-matching
// recurrence (Algorithm 2). Only the rows requested in advance are stored in
// full; per-peer aggregate masses are always available.
type OneMatchingResult struct {
	// N and P echo the model parameters.
	N int
	P float64
	// MatchProb[i] is Σ_j D(i, j): the probability peer i finds a mate.
	MatchProb []float64
	// Rows maps a requested peer i to its full distribution D(i, ·) over
	// mates 0 .. n−1 (D(i,i) = 0).
	Rows map[int][]float64
}

// UnmatchedProb returns 1 − MatchProb[i], the paper's "blue area" of
// Figure 8(c).
func (r *OneMatchingResult) UnmatchedProb(i int) float64 {
	u := 1 - r.MatchProb[i]
	if u < 0 {
		return 0 // clamp float error
	}
	return u
}

// OneMatching evaluates Algorithm 2 — the independent 1-matching recurrence
//
//	D(i, j) = p · (1 − Σ_{k<j} D(i, k)) · (1 − Σ_{k<i} D(j, k))
//
// in O(n²) time and O(n) memory by streaming cumulative row and column
// sums instead of materializing the n×n matrix (the paper's Matlab scripts
// stored it whole). Full rows are kept only for the peers listed in
// trackRows.
func OneMatching(n int, p float64, trackRows ...int) (*OneMatchingResult, error) {
	if n < 0 {
		return nil, fmt.Errorf("analytic: negative population %d", n)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("analytic: probability %v out of [0,1]", p)
	}
	res := &OneMatchingResult{
		N:         n,
		P:         p,
		MatchProb: make([]float64, n),
		Rows:      make(map[int][]float64, len(trackRows)),
	}
	for _, i := range trackRows {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("analytic: tracked row %d out of range [0,%d)", i, n)
		}
		res.Rows[i] = make([]float64, n)
	}

	// colSum[j] = Σ_{k<i} D(k, j) for the current outer row i; by symmetry
	// this is exactly Σ_{k<i} D(j, k), the inner factor of the recurrence.
	colSum := make([]float64, n)
	for i := 0; i < n; i++ {
		rowSum := colSum[i] // Σ_{k<i} D(i, k), accumulated by earlier rows
		rowOut := res.Rows[i]
		for j := i + 1; j < n; j++ {
			d := p * (1 - rowSum) * (1 - colSum[j])
			rowSum += d
			colSum[j] += d
			if rowOut != nil {
				rowOut[j] = d
			}
			if out := res.Rows[j]; out != nil {
				out[i] = d
			}
		}
		res.MatchProb[i] = rowSum
	}
	return res, nil
}
