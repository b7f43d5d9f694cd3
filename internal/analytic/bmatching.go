package analytic

import "fmt"

// BMatchingResult holds the output of the independent b0-matching recurrence
// (Algorithm 3). Dc(i, j) denotes the probability that choice number c
// (1-based, c ≤ b0) of peer i is peer j.
type BMatchingResult struct {
	// N, P and B0 echo the model parameters.
	N  int
	P  float64
	B0 int
	// SlotMatchProb[c−1][i] is Σ_j Dc(i, j): the probability that peer i's
	// c-th slot is filled.
	SlotMatchProb [][]float64
	// MatchProbAny[i] is the probability that at least the first slot is
	// filled, i.e. that peer i collaborates with anybody (slot fills are
	// nested: slot c fills only if slot c−1 did).
	MatchProbAny []float64
	// Rows maps a tracked peer i to [c−1][j] = Dc(i, j).
	Rows map[int][][]float64
	// ExpectedValue[i] = Σ_c Σ_j Dc(i, j) · value(j) when a partner-value
	// function was supplied, else nil. This powers Figure 11, where
	// value(j) is peer j's upload bandwidth per slot.
	ExpectedValue []float64
}

// BMatchingOptions parameterizes BMatching.
type BMatchingOptions struct {
	// N is the number of peers; P the Erdős–Rényi edge probability; B0 the
	// uniform number of slots per peer.
	N  int
	P  float64
	B0 int
	// TrackRows lists peers whose per-choice distributions are kept whole.
	TrackRows []int
	// PartnerValue, when non-nil, must have length N; the result then
	// contains ExpectedValue[i] = Σ_c Σ_j Dc(i,j)·PartnerValue[j].
	PartnerValue []float64
}

// BMatching evaluates Algorithm 3 — the independent b0-matching recurrence.
// For every pair i < j and choice indices ci, cj it uses the paper's
// Assumption 2 factorization
//
//	D^{cj}_{ci}(i, j) = p · X_i(ci, j) · X_j(cj, i)
//
// where X_i(c, j) = P(choice c−1 of i matched better than j) − P(choice c of
// i matched better than j), with the convention that "choice 0" is always
// matched better than anybody. (The report's formula (4) prints the
// summation bounds with i and j swapped relative to its own Assumption 2 and
// Algorithm 3 initialization; we implement the semantically consistent
// version, which our Monte-Carlo tests validate.)
//
// Since X_i does not depend on cj, each pair costs O(b0):
// Dci(i,j) = p·X_i(ci)·ΣX_j and Dcj(j,i) = p·X_j(cj)·ΣX_i.
// Total cost is O(n²·b0) time and O(n·b0) memory.
func BMatching(opt BMatchingOptions) (*BMatchingResult, error) {
	n, p, b0 := opt.N, opt.P, opt.B0
	if n < 0 {
		return nil, fmt.Errorf("analytic: negative population %d", n)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("analytic: probability %v out of [0,1]", p)
	}
	if b0 < 1 {
		return nil, fmt.Errorf("analytic: b0 = %d, want >= 1", b0)
	}
	if opt.PartnerValue != nil && len(opt.PartnerValue) != n {
		return nil, fmt.Errorf("analytic: PartnerValue has %d entries, want %d", len(opt.PartnerValue), n)
	}
	res := &BMatchingResult{
		N:             n,
		P:             p,
		B0:            b0,
		SlotMatchProb: make([][]float64, b0),
		MatchProbAny:  make([]float64, n),
		Rows:          make(map[int][][]float64, len(opt.TrackRows)),
	}
	for c := 0; c < b0; c++ {
		res.SlotMatchProb[c] = make([]float64, n)
	}
	for _, i := range opt.TrackRows {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("analytic: tracked row %d out of range [0,%d)", i, n)
		}
		rows := make([][]float64, b0)
		for c := range rows {
			rows[c] = make([]float64, n)
		}
		res.Rows[i] = rows
	}
	if opt.PartnerValue != nil {
		res.ExpectedValue = make([]float64, n)
	}

	bmatchingSerial(res, opt)
	for i := 0; i < n; i++ {
		res.MatchProbAny[i] = res.SlotMatchProb[0][i]
	}
	return res, nil
}

// bmatchingSerial is the row-major evaluation of the recurrence.
func bmatchingSerial(res *BMatchingResult, opt BMatchingOptions) {
	n, p, b0 := opt.N, opt.P, opt.B0
	// colCum[j*b0+c] = Σ_{k<i} D_{c+1}(j, k) for the current outer row i:
	// peer-major, so a pair reads and writes one contiguous b0-run.
	colCum := make([]float64, n*b0)
	// rows[i] is res.Rows[i] for tracked peers and nil otherwise: a slice
	// index in the pair loop instead of a map lookup.
	rows := make([][][]float64, n)
	for i, r := range res.Rows {
		rows[i] = r
	}
	// Scratch buffers reused across pairs.
	rowCum := make([]float64, b0) // Σ_{k<j} D_{c+1}(i, k) while scanning row i
	xi := make([]float64, b0)
	xj := make([]float64, b0)

	for i := 0; i < n; i++ {
		copy(rowCum, colCum[i*b0:(i+1)*b0])
		rowOut := rows[i]
		for j := i + 1; j < n; j++ {
			cj := colCum[j*b0 : (j+1)*b0]
			// X factors before any update for this pair.
			var sumXi, sumXj float64
			for c := 0; c < b0; c++ {
				prev := 1.0
				if c > 0 {
					prev = rowCum[c-1]
				}
				xi[c] = prev - rowCum[c]
				sumXi += xi[c]
				prev = 1.0
				if c > 0 {
					prev = cj[c-1]
				}
				xj[c] = prev - cj[c]
				sumXj += xj[c]
			}
			colOut := rows[j]
			for c := 0; c < b0; c++ {
				dci := p * xi[c] * sumXj // Dc(i, j)
				dcj := p * xj[c] * sumXi // Dc(j, i)
				rowCum[c] += dci
				cj[c] += dcj
				if rowOut != nil {
					rowOut[c][j] = dci
				}
				if colOut != nil {
					colOut[c][i] = dcj
				}
			}
			if res.ExpectedValue != nil {
				pairProb := p * sumXi * sumXj // P(i and j matched at all)
				res.ExpectedValue[i] += pairProb * opt.PartnerValue[j]
				res.ExpectedValue[j] += pairProb * opt.PartnerValue[i]
			}
		}
		// Row i is complete: rowCum[c] is Σ_j D_{c+1}(i, j), summed over
		// the earlier rows' column terms and then this row's terms, in pair
		// order — the slot's fill probability.
		for c := 0; c < b0; c++ {
			res.SlotMatchProb[c][i] = rowCum[c]
		}
	}
}
