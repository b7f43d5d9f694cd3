package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOneMatchingTinyHandComputed(t *testing.T) {
	const p = 0.3
	res, err := OneMatching(3, p, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want01 := p
	want02 := p * (1 - p)
	want12 := p * (1 - p) * (1 - p*(1-p))
	if got := res.Rows[0][1]; math.Abs(got-want01) > 1e-12 {
		t.Errorf("D(0,1) = %v, want %v", got, want01)
	}
	if got := res.Rows[0][2]; math.Abs(got-want02) > 1e-12 {
		t.Errorf("D(0,2) = %v, want %v", got, want02)
	}
	if got := res.Rows[1][2]; math.Abs(got-want12) > 1e-12 {
		t.Errorf("D(1,2) = %v, want %v", got, want12)
	}
	// Symmetry of stored rows.
	if res.Rows[1][0] != res.Rows[0][1] || res.Rows[2][0] != res.Rows[0][2] {
		t.Error("stored rows not symmetric")
	}
}

func TestOneMatchingBestPeerGeometric(t *testing.T) {
	// For the best peer the recurrence solves exactly:
	// D(0, j) = p(1−p)^{j−1}, so MatchProb[0] = 1 − (1−p)^{n−1}.
	const n, p = 200, 0.02
	res, err := OneMatching(n, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < n; j++ {
		want := p * math.Pow(1-p, float64(j-1))
		if got := res.Rows[0][j]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("D(0,%d) = %v, want %v", j, got, want)
		}
	}
	wantTotal := 1 - math.Pow(1-p, n-1)
	if got := res.MatchProb[0]; math.Abs(got-wantTotal) > 1e-12 {
		t.Fatalf("MatchProb[0] = %v, want %v", got, wantTotal)
	}
}

func TestOneMatchingRowsAreSubProbabilities(t *testing.T) {
	check := func(seedP uint8, nRaw uint8) bool {
		p := float64(seedP%90)/100 + 0.01
		n := 2 + int(nRaw%80)
		res, err := OneMatching(n, p)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if res.MatchProb[i] < -1e-12 || res.MatchProb[i] > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOneMatchingWorstPeerHalfMatched(t *testing.T) {
	// Paper, Figure 8(c) discussion: "the worst peer ... will be matched
	// exactly in half of the cases".
	res, err := OneMatching(1000, 10.0/999)
	if err != nil {
		t.Fatal(err)
	}
	if mp := res.MatchProb[999]; mp < 0.4 || mp > 0.6 {
		t.Fatalf("worst peer match probability %v, want ~0.5", mp)
	}
	if u := res.UnmatchedProb(999); math.Abs(u+res.MatchProb[999]-1) > 1e-12 {
		t.Fatalf("UnmatchedProb inconsistent: %v", u)
	}
}

func TestOneMatchingStratificationShift(t *testing.T) {
	// Figure 8(b): for mid-ranked peers the distribution is (nearly)
	// symmetric around the peer's own rank and shift-invariant.
	const n = 2000
	res, err := OneMatching(n, 0.01, 800, 1200)
	if err != nil {
		t.Fatal(err)
	}
	shift := 400
	var delta, mass float64
	for off := -300; off <= 300; off++ {
		a := res.Rows[800][800+off]
		b := res.Rows[1200][1200+off]
		delta += math.Abs(a - b)
		mass += a
		_ = shift
	}
	if mass < 0.5 {
		t.Fatalf("central mass only %v; offsets window too small", mass)
	}
	if delta/mass > 0.05 {
		t.Fatalf("distributions not shift-invariant: L1 delta %v over mass %v", delta, mass)
	}
}

func TestOneMatchingErrors(t *testing.T) {
	if _, err := OneMatching(-1, 0.5); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := OneMatching(10, 1.5); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := OneMatching(10, 0.5, 99); err == nil {
		t.Error("out-of-range tracked row accepted")
	}
}

func TestExactOneMatchingFigure7(t *testing.T) {
	// Figure 7's exact probabilities for n = 3.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		d, err := ExactOneMatching(3, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d[0][1], p; math.Abs(got-want) > 1e-12 {
			t.Errorf("p=%v: exact D(0,1) = %v, want %v", p, got, want)
		}
		if got, want := d[0][2], p*(1-p); math.Abs(got-want) > 1e-12 {
			t.Errorf("p=%v: exact D(0,2) = %v, want %v", p, got, want)
		}
		if got, want := d[1][2], p*(1-p)*(1-p); math.Abs(got-want) > 1e-12 {
			t.Errorf("p=%v: exact D(1,2) = %v, want %v", p, got, want)
		}
	}
}

func TestFigure7ErrorFormula(t *testing.T) {
	// Approximation error on the worst pair is exactly p³(1−p).
	for _, p := range []float64{0.05, 0.3, 0.7} {
		fig, err := ComputeFigure7(p)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Pow(p, 3) * (1 - p)
		if math.Abs(fig.Err-want) > 1e-12 {
			t.Errorf("p=%v: err = %v, want p³(1−p) = %v", p, fig.Err, want)
		}
		// The two models agree exactly on the other two pairs.
		if math.Abs(fig.Approx[0][1]-fig.Exact[0][1]) > 1e-12 ||
			math.Abs(fig.Approx[0][2]-fig.Exact[0][2]) > 1e-12 {
			t.Errorf("p=%v: approximation differs on pairs involving peer 0", p)
		}
	}
}

func TestExactRejectsLargeN(t *testing.T) {
	if _, err := Exact(7, 0.5, 1); err == nil {
		t.Fatal("n=7 accepted")
	}
}

func TestExactMassConservation(t *testing.T) {
	// Each row of the exact distribution is a sub-probability, and the
	// distribution is symmetric for 1-matching.
	d, err := ExactOneMatching(5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sum := 0.0
		for j := 0; j < 5; j++ {
			sum += d[i][j]
			if math.Abs(d[i][j]-d[j][i]) > 1e-12 {
				t.Fatalf("exact D not symmetric at (%d,%d)", i, j)
			}
		}
		if sum > 1+1e-12 {
			t.Fatalf("row %d mass %v > 1", i, sum)
		}
	}
}

func TestBMatchingReducesToOneMatching(t *testing.T) {
	const n, p = 120, 0.04
	om, err := OneMatching(n, p, 17)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := BMatching(BMatchingOptions{N: n, P: p, B0: 1, TrackRows: []int{17}})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		if math.Abs(om.Rows[17][j]-bm.Rows[17][0][j]) > 1e-12 {
			t.Fatalf("b0=1 mismatch at j=%d: %v vs %v", j, om.Rows[17][j], bm.Rows[17][0][j])
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(om.MatchProb[i]-bm.SlotMatchProb[0][i]) > 1e-12 {
			t.Fatalf("match prob mismatch at %d", i)
		}
	}
}

func TestBMatchingSlotNesting(t *testing.T) {
	// Slot c can only fill if slot c−1 filled: probabilities must be
	// non-increasing in c for every peer.
	bm, err := BMatching(BMatchingOptions{N: 300, P: 0.02, B0: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		for c := 1; c < 3; c++ {
			if bm.SlotMatchProb[c][i] > bm.SlotMatchProb[c-1][i]+1e-12 {
				t.Fatalf("peer %d: slot %d prob %v exceeds slot %d prob %v",
					i, c+1, bm.SlotMatchProb[c][i], c, bm.SlotMatchProb[c-1][i])
			}
		}
		if bm.MatchProbAny[i] != bm.SlotMatchProb[0][i] {
			t.Fatal("MatchProbAny != first slot probability")
		}
	}
}

func TestBMatchingExpectedValue(t *testing.T) {
	// With unit partner values, the expected value is the expected number
	// of filled slots: Σ_c SlotMatchProb[c][i].
	const n = 150
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	bm, err := BMatching(BMatchingOptions{N: n, P: 0.05, B0: 2, PartnerValue: ones})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := bm.SlotMatchProb[0][i] + bm.SlotMatchProb[1][i]
		if math.Abs(bm.ExpectedValue[i]-want) > 1e-9 {
			t.Fatalf("peer %d: expected value %v, want %v", i, bm.ExpectedValue[i], want)
		}
	}
}

// TestBMatchingTrackedRowsMatchTotals checks the tracked rows against the
// per-peer totals with non-uniform partner values: each tracked row must sum
// to the peer's slot probabilities, and weighting it by the partner values
// must give ExpectedValue[i] = Σ_c Σ_j Dc(i,j)·PartnerValue[j].
func TestBMatchingTrackedRowsMatchTotals(t *testing.T) {
	const n, p, b0 = 411, 0.03, 3
	value := make([]float64, n)
	for j := range value {
		value[j] = float64(n - j)
	}
	tracked := []int{0, 1, n / 2, n - 1}
	bm, err := BMatching(BMatchingOptions{N: n, P: p, B0: b0, TrackRows: tracked, PartnerValue: value})
	if err != nil {
		t.Fatal(err)
	}
	relClose := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-12*math.Abs(want)
	}
	for _, i := range tracked {
		var ev float64
		for c := 0; c < b0; c++ {
			var mass float64
			for j, d := range bm.Rows[i][c] {
				mass += d
				ev += d * value[j]
			}
			if !relClose(mass, bm.SlotMatchProb[c][i]) {
				t.Errorf("peer %d slot %d: row mass %v, SlotMatchProb %v", i, c+1, mass, bm.SlotMatchProb[c][i])
			}
		}
		if !relClose(ev, bm.ExpectedValue[i]) {
			t.Errorf("peer %d: row-weighted value %v, ExpectedValue %v", i, ev, bm.ExpectedValue[i])
		}
	}
}

func TestBMatchingErrors(t *testing.T) {
	if _, err := BMatching(BMatchingOptions{N: 10, P: 0.1, B0: 0}); err == nil {
		t.Error("b0=0 accepted")
	}
	if _, err := BMatching(BMatchingOptions{N: 10, P: 2, B0: 1}); err == nil {
		t.Error("p=2 accepted")
	}
	if _, err := BMatching(BMatchingOptions{N: 10, P: 0.1, B0: 1, PartnerValue: []float64{1}}); err == nil {
		t.Error("short PartnerValue accepted")
	}
	if _, err := BMatching(BMatchingOptions{N: 10, P: 0.1, B0: 1, TrackRows: []int{10}}); err == nil {
		t.Error("out-of-range TrackRows accepted")
	}
}

func TestBMatchingAgainstExact(t *testing.T) {
	// For tiny n the approximation must be close to the exact enumeration
	// at small p (the regime the paper validates).
	const n, p, b0 = 5, 0.05, 2
	exact, err := Exact(n, p, b0)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := BMatching(BMatchingOptions{N: n, P: p, B0: b0, TrackRows: []int{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < b0; c++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				diff := math.Abs(exact[c][i][j] - bm.Rows[i][c][j])
				if diff > 0.01 {
					t.Fatalf("c=%d (%d,%d): exact %v vs approx %v",
						c, i, j, exact[c][i][j], bm.Rows[i][c][j])
				}
			}
		}
	}
}

func TestFluidDensity(t *testing.T) {
	if FluidDensity(10, 0) != 10 {
		t.Fatal("density at 0 should be d")
	}
	if FluidDensity(10, -1) != 0 {
		t.Fatal("negative beta should give 0")
	}
	// Total mass ∫ d·e^{−βd} dβ = 1: Riemann check.
	sum := 0.0
	const dBeta = 1e-4
	for beta := 0.0; beta < 3; beta += dBeta {
		sum += FluidDensity(10, beta) * dBeta
	}
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("fluid mass %v, want ~1", sum)
	}
}

func TestCompareFluidConvergence(t *testing.T) {
	pts, err := CompareFluid(3000, 10, 0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if math.Abs(pt.Model-pt.Fluid) > 0.05*10 {
			t.Fatalf("β=%v: model %v vs fluid %v", pt.Beta, pt.Model, pt.Fluid)
		}
	}
}

func TestMonteCarloMatchesModel(t *testing.T) {
	// Empirical choice distributions from true stable matchings must match
	// Algorithm 3's approximation in the small-p regime — the package's
	// central cross-validation (Figure 9 at reduced scale).
	const (
		n, p    = 120, 0.05
		b0      = 2
		peer    = 60
		samples = 4000
	)
	mc, err := MonteCarloChoices(n, p, b0, peer, samples, 42)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := BMatching(BMatchingOptions{N: n, P: p, B0: b0, TrackRows: []int{peer}})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < b0; c++ {
		// Compare total variation distance over coarse bins to absorb
		// sampling noise.
		const bins = 6
		var tv float64
		for b := 0; b < bins; b++ {
			lo, hi := b*n/bins, (b+1)*n/bins
			var em, md float64
			for j := lo; j < hi; j++ {
				em += mc.ChoiceDist[c][j]
				md += bm.Rows[peer][c][j]
			}
			tv += math.Abs(em - md)
		}
		if tv/2 > 0.05 {
			t.Fatalf("choice %d: TV distance %v between Monte-Carlo and model", c+1, tv/2)
		}
	}
}

func TestMonteCarloErrors(t *testing.T) {
	if _, err := MonteCarloChoices(0, 0.5, 1, 0, 10, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := MonteCarloChoices(10, 0.5, 1, 10, 10, 1); err == nil {
		t.Error("peer out of range accepted")
	}
	if _, err := MonteCarloChoices(10, 0.5, 0, 0, 10, 1); err == nil {
		t.Error("b0=0 accepted")
	}
	if _, err := MonteCarloChoices(10, 0.5, 1, 0, 0, 1); err == nil {
		t.Error("samples=0 accepted")
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	a, err := MonteCarloChoices(50, 0.1, 1, 25, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloChoices(50, 0.1, 1, 25, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 50; j++ {
		if a.ChoiceDist[0][j] != b.ChoiceDist[0][j] {
			t.Fatal("same seed produced different Monte-Carlo results")
		}
	}
}

func BenchmarkOneMatching5000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := OneMatching(5000, 0.005, 200, 2500, 4800); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BMatching(BMatchingOptions{N: 2000, P: 0.01, B0: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
