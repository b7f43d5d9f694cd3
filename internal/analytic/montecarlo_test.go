package analytic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"stratmatch/internal/core"
	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
)

// monteCarloHash digests every field of a Monte-Carlo result, floats by
// their exact bit patterns.
func monteCarloHash(res *MonteCarloResult) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(res.N))
	put(math.Float64bits(res.P))
	put(uint64(res.B0))
	put(uint64(res.Peer))
	put(uint64(res.Samples))
	for c := range res.ChoiceDist {
		put(uint64(res.MatchedCount[c]))
		for _, v := range res.ChoiceDist[c] {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMonteCarloGolden pins the Monte-Carlo histograms bit for bit at one
// and three workers. The hash was recorded from the arena-based sampler
// (full G(n, p) draw, then Algorithm 1 on the whole graph), so it also
// pins that the streamed greedy reproduces it exactly.
func TestMonteCarloGolden(t *testing.T) {
	const want = "bdec432b4a8f473792a11e0153366469c0184f7cc6145f3c607ff629ca1fa5c3"
	for _, w := range []int{1, 3} {
		res, err := MonteCarloChoicesWorkers(400, 0.05, 2, 240, 500, 11, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := monteCarloHash(res); got != want {
			t.Errorf("workers=%d: hash %s, want %s", w, got, want)
		}
	}
}

// TestStableMatesMatchesFullSolve is the differential pin for the streamed
// greedy: on every seed and shape, the early-stopped walk returns exactly
// the tracked peer's mates in Algorithm 1's stable matching of the full
// graph drawn from the same stream.
func TestStableMatesMatchesFullSolve(t *testing.T) {
	shapes := []struct {
		n  int
		p  float64
		b0 int
	}{
		{5000, 0.01, 2}, {200, 0.1, 3}, {2000, 0.002, 4},
		{50, 0, 2}, {30, 1, 3}, {1, 0.5, 2}, {2, 0.5, 1}, {2, 1, 2},
	}
	var (
		full, short int // samples whose tracked peer ended full / not full
		garena      graph.Arena
		carena      core.Arena
	)
	for _, sh := range shapes {
		peers := []int{0, sh.n / 2, 3 * sh.n / 5, sh.n - 1}
		avail := make([]int, sh.n)
		for s := uint64(1); s <= 200; s++ {
			cfg := carena.StableUniform(garena.ErdosRenyi(sh.n, sh.p, rng.New(s)), sh.b0)
			for _, peer := range peers {
				got := stableMates(sh.n, sh.p, sh.b0, peer, rng.New(s), avail, nil)
				want := cfg.Mates(peer)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d p=%v b0=%d peer=%d seed=%d: streamed mates %v, full solve %v",
						sh.n, sh.p, sh.b0, peer, s, got, want)
				}
				if len(want) == sh.b0 {
					full++
				} else {
					short++
				}
			}
		}
	}
	if full == 0 || short == 0 {
		t.Fatalf("coverage: %d full and %d unfilled tracked peers, want both > 0", full, short)
	}
}

// TestRejectsNaNProbability pins that every analytic entry point turns a
// NaN edge probability into an error instead of NaN output, a panic or a
// walk that never ends.
func TestRejectsNaNProbability(t *testing.T) {
	nan := math.NaN()
	for name, run := range map[string]func() error{
		"BMatching": func() error {
			_, err := BMatching(BMatchingOptions{N: 50, P: nan, B0: 2})
			return err
		},
		"OneMatching": func() error {
			_, err := OneMatching(50, nan, 10, 0)
			return err
		},
		"Exact": func() error {
			_, err := Exact(6, nan, 2)
			return err
		},
		"MonteCarloChoices": func() error {
			_, err := MonteCarloChoices(50, nan, 1, 25, 10, 1)
			return err
		},
	} {
		if err := run(); err == nil {
			t.Errorf("%s accepted p = NaN", name)
		}
	}
}

// BenchmarkMonteCarloChoices times the Monte-Carlo at Figure 9's shape on
// one worker.
func BenchmarkMonteCarloChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloChoicesWorkers(5000, 0.01, 2, 3000, 200, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
