package stratmatch

// One benchmark per paper table/figure: each regenerates the corresponding
// artifact through internal/experiments and fails if any of the paper's
// qualitative checks fail, so `go test -bench=.` is simultaneously a timing
// harness and a reproduction gate. Benchmarks run at a reduced scale
// (BenchScale) to keep -bench=. minutes-scale; cmd/stratsim runs the same
// experiments at paper scale.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"stratmatch/internal/analytic"
	"stratmatch/internal/experiments"
	"stratmatch/internal/trackerd"
)

// BenchScale trades fidelity for speed in benchmarks; cmd/stratsim defaults
// to 1.0 (paper scale).
const BenchScale = 0.2

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	// 500 Monte-Carlo draws: the parallel sampler made the larger draw
	// count affordable, and 200 draws left fig9's TV-distance check too
	// noisy to pass at bench scale.
	cfg := experiments.Config{Seed: 1, Scale: BenchScale, MCSamples: 500}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, fail := res.Checks(); fail > 0 {
			b.Fatalf("%s: %d qualitative checks failed: %v", id, fail, res.Notes)
		}
	}
}

// BenchmarkFig1Convergence regenerates Figure 1 (convergence from the empty
// configuration for three (n, d) settings).
func BenchmarkFig1Convergence(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2Removal regenerates Figure 2 (re-convergence after removing
// peers 1/100/300/600 from the stable state).
func BenchmarkFig2Removal(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3Churn regenerates Figure 3 (disorder plateaus under five
// churn rates).
func BenchmarkFig3Churn(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4Clusters regenerates Figure 4 (disjoint b0+1 clusters under
// constant b-matching on the complete graph).
func BenchmarkFig4Clusters(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5ExtraConnection regenerates Figure 5 (one extra slot makes
// the collaboration graph connected).
func BenchmarkFig5ExtraConnection(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkTable1 regenerates Table 1 (cluster sizes and MMO for constant
// and normal-distributed budgets, b = 2..7).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkFig6Sigma regenerates Figure 6 (phase transition in σ for
// N(6, σ²)-matching).
func BenchmarkFig6Sigma(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Exact regenerates Figure 7 (exact vs approximate matching
// probabilities for n = 3; error p³(1−p)).
func BenchmarkFig7Exact(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8OneMatching regenerates Figure 8 (mate distributions of
// peers 200/2500/4800, n = 5000, p = 0.5%).
func BenchmarkFig8OneMatching(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9TwoMatching regenerates Figure 9 (estimated vs Monte-Carlo
// simulated choice distributions, b0 = 2).
func BenchmarkFig9TwoMatching(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10CDF regenerates Figure 10 (upstream capacity CDF).
func BenchmarkFig10CDF(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11ShareRatio regenerates Figure 11 (expected D/U ratio versus
// upload bandwidth, b0 = 3, d = 20).
func BenchmarkFig11ShareRatio(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkTheorem1 demonstrates Theorem 1's B/2 bound and guaranteed
// convergence on random schedules.
func BenchmarkTheorem1(b *testing.B) { benchExperiment(b, "thm1") }

// BenchmarkMMOClosedForm tabulates MMO(b0) against its 3·b0/4 limit.
func BenchmarkMMOClosedForm(b *testing.B) { benchExperiment(b, "mmo") }

// BenchmarkFluidLimit checks n·D(0, βn) → d·e^{−βd} (Conjecture 1).
func BenchmarkFluidLimit(b *testing.B) { benchExperiment(b, "fluid") }

// BenchmarkSwarm runs the BitTorrent TFT swarm and verifies emergent
// stratification (the empirical side of Section 6).
func BenchmarkSwarm(b *testing.B) { benchExperiment(b, "swarm") }

// BenchmarkAblationStrategies compares the three initiative strategies'
// convergence (DESIGN.md ablation).
func BenchmarkAblationStrategies(b *testing.B) { benchExperiment(b, "strategies") }

// BenchmarkAblationSlots sweeps the slot budget b0 = 1..6: connectivity of
// the collaboration graph vs the rational pull towards fewer slots.
func BenchmarkAblationSlots(b *testing.B) { benchExperiment(b, "slots") }

// BenchmarkTies runs the quantized-score (tie) extension: convergence and
// stratification survive ties; uniqueness does not.
func BenchmarkTies(b *testing.B) { benchExperiment(b, "ties") }

// BenchmarkCombo overlays bandwidth (global-ranking) and latency (metric)
// matchings — the conclusion's combined-utility proposal.
func BenchmarkCombo(b *testing.B) { benchExperiment(b, "combo") }

// BenchmarkGossip runs gossip-based rank discovery and measures how fast
// the estimated-rank matching approaches the true stable configuration.
func BenchmarkGossip(b *testing.B) { benchExperiment(b, "gossip") }

// BenchmarkChurn runs the dynamic-membership scenario catalog (flash
// crowd, Poisson steady state, mass departure + healing) through the
// tracker/churn subsystem.
func BenchmarkChurn(b *testing.B) { benchExperiment(b, "churn") }

// BenchmarkFaults runs the fault-injection catalog (tracker outage with
// lossy announces, partition bisect + heal, crash-stop wave with the
// failure-detection sweep) — the robustness layer's cost and reconvergence
// gate.
func BenchmarkFaults(b *testing.B) { benchExperiment(b, "faults") }

// benchSwarmStep times one engine round of a content-unlimited steady-state
// swarm with the telemetry recorder detached or attached. The Off/On pair
// in BENCH_results.json is the telemetry overhead differential: the enabled
// gap must stay small (<5%), and the disabled path is additionally pinned
// allocation-free by internal/btsim's alloc tests.
func benchSwarmStep(b *testing.B, tel *Telemetry) {
	sw, err := NewSwarm(SwarmOptions{
		Leechers: 300, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 20, Seed: 33,
	})
	if err != nil {
		b.Fatal(err)
	}
	sw.SetTelemetry(tel)
	sw.Run(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Run(1)
	}
}

func BenchmarkSwarmStepTelemetryOff(b *testing.B) { benchSwarmStep(b, nil) }
func BenchmarkSwarmStepTelemetryOn(b *testing.B)  { benchSwarmStep(b, NewTelemetry()) }

// BenchmarkSwarmStepSharded times one engine round of a 50k-peer
// content-unlimited swarm across step-worker counts. Every sub-benchmark
// runs the identical trajectory (same seed, same rounds — the worker count
// is byte-invisible), so the ns/op ratios in BENCH_results.json are the
// sharded stepper's parallel speedup, clean of workload drift.
func BenchmarkSwarmStepSharded(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sw, err := NewSwarm(SwarmOptions{
				Leechers: 50_000, Pieces: 1, ContentUnlimited: true,
				NeighborCount: 20, MaxNeighbors: 30, Seed: 44,
			})
			if err != nil {
				b.Fatal(err)
			}
			sw.SetStepWorkers(workers)
			defer sw.Close()
			sw.Run(5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Run(1)
			}
		})
	}
}

// BenchmarkMillionPeerRound is the flash-crowd headline number: one round
// of a million-peer content-unlimited swarm (the population of the
// flashcrowd1m scenario after its burst) under 8 step workers.
func BenchmarkMillionPeerRound(b *testing.B) {
	sw, err := NewSwarm(SwarmOptions{
		Leechers: 999_000, Seeds: 1000, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 8, MaxNeighbors: 12, Seed: 45,
	})
	if err != nil {
		b.Fatal(err)
	}
	sw.SetStepWorkers(8)
	defer sw.Close()
	sw.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Run(1)
	}
}

// BenchmarkBMatching times Algorithm 3's serial O(n²·b0) recurrence with
// Figure 11's b0 = 3 slots over a 4000-peer network (twice Figure 11's
// population).
func BenchmarkBMatching(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := analytic.BMatching(analytic.BMatchingOptions{N: 4000, P: 0.005, B0: 3})
		if err != nil {
			b.Fatal(err)
		}
		if res.MatchProbAny[0] <= 0 {
			b.Fatal("degenerate matching result")
		}
	}
}

// benchCheckpoint runs the poisson catalog scenario with (or without) the
// durable-checkpoint path: a checksummed snapshot of the complete run
// state encoded, atomically written and rotated every 10 rounds. The
// on/off contrast isolates what durability costs a run.
func benchCheckpoint(b *testing.B, every int) {
	sc, err := NewScenario("poisson", 40, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	if every > 0 {
		sc.CheckpointEvery = every
		sc.CheckpointDir = b.TempDir()
		sc.CheckpointRetain = 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpoint(b *testing.B)    { benchCheckpoint(b, 10) }
func BenchmarkCheckpointOff(b *testing.B) { benchCheckpoint(b, 0) }

// BenchmarkTrackerdAnnounce times one served announce against the tracker
// daemon's concurrent registry (no HTTP): the registry lock, the roster
// lookup and the shared seed-deterministic handout policy.
func BenchmarkTrackerdAnnounce(b *testing.B) {
	g := trackerd.NewRegistry(trackerd.RegistryConfig{Seed: 7})
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("p%d", i)
		g.Announce("bench", keys[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Announce("bench", keys[i%len(keys)])
	}
}

// BenchmarkTrackerdSustainedLoad measures the daemon end to end: the load
// generator replays announce traffic (with churn) over real HTTP against a
// live server, and the achieved throughput and latency quantiles land in
// BENCH_results.json as custom units — benchjson --compare checks them
// direction-aware (announces/sec falling or p99 rising past 20% is a
// regression).
func BenchmarkTrackerdSustainedLoad(b *testing.B) {
	srv := trackerd.NewServer(trackerd.Config{Seed: 9, CheckpointDir: b.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var last trackerd.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg := trackerd.LoadGen{
			BaseURL:     ts.URL,
			Swarm:       fmt.Sprintf("bench-%d", i), // fresh swarm per iteration: steady registration load
			Peers:       128,
			Concurrency: 8,
			Total:       2000,
			Churn:       16,
		}
		rep, err := lg.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors > 0 {
			b.Fatalf("%d announce errors under load", rep.Errors)
		}
		last = rep
	}
	b.StopTimer()
	b.ReportMetric(last.PerSec, "announces/sec")
	b.ReportMetric(float64(last.P50)/1e6, "p50-ms")
	b.ReportMetric(float64(last.P99)/1e6, "p99-ms")
}

// BenchmarkStableMatching times the core solver itself on an Erdős–Rényi
// network of 5000 peers (not tied to a figure; the primitive every
// experiment leans on).
func BenchmarkStableMatching(b *testing.B) {
	nw, err := NewRandomNetwork(5000, 20, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := nw.Stable()
		if m.Degree(0) == 0 {
			b.Fatal("best peer unmatched")
		}
	}
}
