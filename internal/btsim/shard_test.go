package btsim

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"stratmatch/internal/checkpoint"
	"stratmatch/internal/telemetry"
)

// TestShardedStepByteIdenticalCatalog is the tentpole acceptance property:
// every catalog scenario — churn and faults alike — produces a result
// byte-identical to the serial run at every tested worker count. Shards own
// their RNG sub-streams and cross-shard effects merge in slot order, so the
// worker count must be invisible in the output.
func TestShardedStepByteIdenticalCatalog(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			serial, err := NamedScenario(name, 11, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := serial.Run()
			if err != nil {
				t.Fatal(err)
			}
			goldenStr := fmtResult(golden)
			for _, workers := range []int{2, 4} {
				sc, err := NamedScenario(name, 11, 0.15)
				if err != nil {
					t.Fatal(err)
				}
				sc.StepWorkers = workers
				res, err := sc.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := fmtResult(res); got != goldenStr {
					t.Errorf("workers=%d diverged from serial:\n--- serial ---\n%.600s\n--- workers=%d ---\n%.600s",
						workers, goldenStr, workers, got)
				}
			}
		})
	}
}

// TestFlashcrowd1MScaledByteIdentical runs the million-peer flash-crowd
// scenario at test scale (the CI smoke job runs it bigger) and pins the
// same worker-count invariance on it: a ~5k-peer burst into a small seeded
// swarm, content-unlimited, sampled every round.
func TestFlashcrowd1MScaledByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled stress scenario")
	}
	serial, err := NamedScenario("flashcrowd1m", 3, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	if golden.TotalJoined < 2000 {
		t.Fatalf("scaled flashcrowd1m joined only %d peers; the burst did not fire", golden.TotalJoined)
	}
	goldenStr := fmtResult(golden)
	for _, workers := range []int{4, 8} {
		sc, err := NamedScenario("flashcrowd1m", 3, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		sc.StepWorkers = workers
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if fmtResult(res) != goldenStr {
			t.Errorf("flashcrowd1m workers=%d diverged from serial", workers)
		}
	}
}

// boundaryChurnOps drives a deterministic churn script over a swarm whose
// shard width was forced to the 64-slot minimum, so joins, departures and
// crashes constantly cross shard boundaries and recycle slots across them.
// The script is a pure function of the round, so two swarms with identical
// options replay identical ops.
func boundaryChurnOps(s *Swarm, round int) {
	if round%3 == 0 {
		// A burst of joins walks occupancy across the 64-slot boundaries;
		// freed slots from earlier departures get recycled into different
		// shards than their previous owners.
		for k := 0; k < 10; k++ {
			id := s.Join(100+float64(7*((round+k)%23)), k%4 == 3)
			s.Announce(id)
		}
	}
	n := len(s.peers)
	if round%2 == 1 && n > 0 {
		s.Depart((round * 13) % n)
	}
	if round%5 == 2 && n > 0 {
		s.Crash((round*29 + 5) % n)
	}
}

func boundarySwarm(t *testing.T, workers int) *Swarm {
	t.Helper()
	s, err := New(Options{
		Leechers: 90, Seeds: 6, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 8, MaxNeighbors: 12, MaxPeers: 400, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.setShardSlots(64)
	s.SetStepWorkers(workers)
	return s
}

// TestShardBoundaryChurnByteIdentical churns peers across shard-range
// edges — joins landing in fresh shards, departures and crashes freeing
// slots that later joins recycle — and demands that a 4-worker swarm stays
// byte-identical to the serial one while both keep every invariant,
// including the lazy-vs-eager cross-checks in CheckInvariants.
func TestShardBoundaryChurnByteIdentical(t *testing.T) {
	a := boundarySwarm(t, 1)
	b := boundarySwarm(t, 4)
	for round := 0; round < 60; round++ {
		boundaryChurnOps(a, round)
		boundaryChurnOps(b, round)
		a.Step()
		b.Step()
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("round %d serial invariants: %v", round, err)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("round %d workers=4 invariants: %v", round, err)
		}
		if round%10 == 9 {
			got := fmt.Sprintf("%+v", b.Snapshot())
			want := fmt.Sprintf("%+v", a.Snapshot())
			if got != want {
				t.Fatalf("round %d: workers=4 snapshot diverged from serial", round)
			}
		}
	}
}

// TestShardDeltaMergeStress pushes the cross-shard delta-merge path hard —
// many shards, many workers, churn every round — and is most valuable
// under -race (CI runs it there): the atomic incoming-bitmap OR, the
// exclusive xfer writes and the slot-ordered drain are all exercised with
// real contention.
func TestShardDeltaMergeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	s, err := New(Options{
		Leechers: 500, Seeds: 20, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 20, MaxNeighbors: 30, MaxPeers: 700, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.setShardSlots(64) // ~11 shards
	s.SetStepWorkers(8)
	for round := 0; round < 40; round++ {
		boundaryChurnOps(s, round)
		s.Step()
		if round%10 == 9 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

// TestStepWorkersLeaveNoGoroutines pins that a multi-worker swarm holds no
// goroutines between Steps: the sharded phases borrow workers only for
// their own duration, so a swarm dropped without any release call leaves
// the goroutine count where it was before the swarm existed.
func TestStepWorkersLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		s := boundarySwarm(t, 4)
		for round := 0; round < 20; round++ {
			boundaryChurnOps(s, round)
			s.Step()
		}
	}()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("goroutines: %d after dropping a 4-worker swarm, %d before", n, base)
	}
}

// approxSeries compares two series points: integer fields exactly, float
// fields to a relative tolerance (the incremental sampler accumulates the
// same terms as the eager scan but in a different association order).
func approxSeries(a, b SeriesPoint, tol float64) error {
	ints := func(name string, x, y int) error {
		if x != y {
			return fmt.Errorf("%s: %d != %d", name, x, y)
		}
		return nil
	}
	floats := func(name string, x, y float64) error {
		if math.IsNaN(x) && math.IsNaN(y) {
			return nil
		}
		if diff := math.Abs(x - y); diff > tol*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			return fmt.Errorf("%s: %v != %v (diff %v)", name, x, y, diff)
		}
		return nil
	}
	checks := []error{
		ints("Round", a.Round, b.Round),
		ints("Present", a.Present, b.Present),
		ints("Leechers", a.Leechers, b.Leechers),
		ints("Seeds", a.Seeds, b.Seeds),
		ints("Joined", a.Joined, b.Joined),
		ints("Departed", a.Departed, b.Departed),
		ints("Completed", a.Completed, b.Completed),
		ints("StaleEdges", a.StaleEdges, b.StaleEdges),
		ints("Crashed", a.Crashed, b.Crashed),
		ints("AnnounceFailures", a.AnnounceFailures, b.AnnounceFailures),
		ints("AnnounceRetries", a.AnnounceRetries, b.AnnounceRetries),
		floats("MeanDegree", a.MeanDegree, b.MeanDegree),
		floats("StratCorr", a.StratCorr, b.StratCorr),
		floats("ShareRatio[0]", a.ShareRatioByClass[0], b.ShareRatioByClass[0]),
		floats("ShareRatio[1]", a.ShareRatioByClass[1], b.ShareRatioByClass[1]),
		floats("ShareRatio[2]", a.ShareRatioByClass[2], b.ShareRatioByClass[2]),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestLazySamplerMatchesEager is the differential pin for the O(changed)
// incremental series sampler: across the whole catalog, the lazy sampler's
// series must match the eager full-roster scan — integer fields exactly,
// correlation and share-ratio aggregates to float tolerance — and the
// final snapshot (always an eager scan) must be byte-identical, proving
// the sampler never perturbs the trajectory.
func TestLazySamplerMatchesEager(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			lazy, err := NamedScenario(name, 9, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := NamedScenario(name, 9, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			eager.eagerSample = true
			lr, err := lazy.Run()
			if err != nil {
				t.Fatal(err)
			}
			er, err := eager.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(lr.Series) != len(er.Series) {
				t.Fatalf("series lengths differ: lazy %d, eager %d", len(lr.Series), len(er.Series))
			}
			for i := range lr.Series {
				if err := approxSeries(lr.Series[i], er.Series[i], 1e-6); err != nil {
					t.Fatalf("sample %d (round %d): %v", i, lr.Series[i].Round, err)
				}
			}
			if got, want := fmt.Sprintf("%+v", lr.Final), fmt.Sprintf("%+v", er.Final); got != want {
				t.Fatal("lazy sampler perturbed the trajectory: final snapshots differ")
			}
		})
	}
}

// TestSeriesStatsZeroAlloc pins the cost model of the incremental sampler:
// flushing dirty slots and reading the aggregates allocates nothing, so
// per-round sampling (SampleEvery 1, the flash-crowd configuration) adds
// no garbage to the steady-state round.
func TestSeriesStatsZeroAlloc(t *testing.T) {
	s, err := New(Options{
		Leechers: 100, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 10, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	cb := newClassBounds(s)
	s.EnableSeriesStats(cb.lo, cb.hi)
	s.Run(30)
	sample := func() {
		s.Step()
		s.flushSeriesStats()
		_ = s.stats.corr()
		for cl := 0; cl < 3; cl++ {
			_ = s.stats.ratioMean(cl)
		}
	}
	if allocs := testing.AllocsPerRun(100, sample); allocs != 0 {
		t.Fatalf("step+flush+read allocates %.1f objects per round, want 0", allocs)
	}
}

// TestEventDrivenSkipsHappen is the existence proof for the event-driven
// stepper: in a converged content-unlimited swarm most peers' choke inputs
// stop changing, so the dirty-set fast path must actually skip rechokes
// (and the active-transfer cache must get rebuilt only when edges moved).
func TestEventDrivenSkipsHappen(t *testing.T) {
	s, err := New(Options{
		Leechers: 120, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 10, Seed: 57,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	s.SetTelemetry(tel)
	s.Run(80)
	if skips := tel.Counter(telemetry.CtrChokeSkips); skips == 0 {
		t.Fatal("80 converged rounds produced zero choke skips; the dirty-set fast path is dead")
	}
	if rebuilds := tel.Counter(telemetry.CtrActiveRebuilds); rebuilds == 0 {
		t.Fatal("no active-cache rebuilds recorded")
	}
	// Skips must dwarf rebuild work once converged: every skip is a slot
	// the eager stepper would have rechoked.
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResumeAcrossWorkerCounts pins that the worker count is a
// pure runtime knob end to end: a run checkpointed under 4 workers resumes
// byte-identically under 1 worker and under 4, matching the serial golden
// run's tail. Checkpoints carry per-shard RNG positions and dirty-set
// state, never the worker count.
//
// The flashcrowd1m case resumes at round 30, inside its arrival burst
// (rounds 5-54), when most peers sit at the degree cap: the tracker's
// saturation bitmap is not in the checkpoint, and the one LoadCheckpoint
// rebuilds from deg must steer the handout exactly as the live one did.
func TestCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint matrix")
	}
	for _, name := range []string{"poisson", "crashcrowd", "flashcrowd1m"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var sc Scenario
			var mid int
			if name == "flashcrowd1m" {
				sp, err := NamedSpec(name, 21, 0.002)
				if err != nil {
					t.Fatal(err)
				}
				if sc, err = sp.Compile(); err != nil {
					t.Fatal(err)
				}
				mid = 30
			} else {
				sc = ckptScenario(t, name, 21)
				mid = sc.Rounds / 2
			}
			golden, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			goldenStr := fmtResult(golden)

			dir := t.TempDir()
			ck := sc
			ck.StepWorkers = 4
			ck.CheckpointEvery = mid
			ck.CheckpointDir = dir
			ck.CheckpointRetain = -1
			full, err := ck.Run()
			if err != nil {
				t.Fatal(err)
			}
			fullCmp := *full
			fullCmp.Events = stripCheckpointEvents(full.Events)
			if got := fmtResult(&fullCmp); got != goldenStr {
				t.Fatalf("4-worker checkpointing run diverged from serial golden:\n--- golden ---\n%.600s\n--- got ---\n%.600s", goldenStr, got)
			}

			for _, workers := range []int{1, 4} {
				res := sc
				res.StepWorkers = workers
				res.ResumeFrom = filepath.Join(dir, checkpoint.FileName(mid))
				resumed, err := res.Run()
				if err != nil {
					t.Fatalf("resume with %d workers: %v", workers, err)
				}
				want := &ScenarioResult{
					Name:          golden.Name,
					Series:        golden.Series[mid:],
					Events:        eventsFromRound(golden.Events, mid),
					Final:         golden.Final,
					TotalJoined:   golden.TotalJoined,
					TotalDeparted: golden.TotalDeparted,
				}
				if got, wantStr := fmtResult(resumed), fmtResult(want); got != wantStr {
					t.Fatalf("resume at workers=%d diverged from golden tail:\n--- want ---\n%.600s\n--- got ---\n%.600s", workers, wantStr, got)
				}
			}
		})
	}
}
