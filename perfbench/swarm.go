package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"stratmatch/internal/btsim"
	"stratmatch/internal/telemetry"
)

// swarmWorkload is a btsim scenario benchmark: how to generate its spec
// from the seed, which percentile is its round-time tail, and the
// qualitative gates each pass must meet.
type swarmWorkload struct {
	name string
	spec func(seed uint64, sz sizes) btsim.ScenarioSpec
	// checkpoints writes a durable checkpoint every churnCheckpointEvery
	// rounds into a scratch directory under the output directory.
	checkpoints bool
	tail        float64
	gates       func(b *bench, p *passResult)
}

// flashcrowd is the flashcrowd1m catalog scenario at a tenth of its size:
// ~100k content-unlimited peers join in a 50-round burst, 120 rounds,
// every round sampled. Its time goes to the serial join/announce handout
// and the sharded choke and transfer passes.
var flashcrowd = swarmWorkload{
	name: "flashcrowd",
	spec: func(seed uint64, sz sizes) btsim.ScenarioSpec {
		spec, err := btsim.NamedSpec("flashcrowd1m", seed, sz.flashScale)
		if err != nil {
			panic(err) // the catalog name is a constant
		}
		return spec
	},
	tail: 0.90,
	gates: func(b *bench, p *passResult) {
		b.check(p.last.StratCorr >= b.size.minStratCorr,
			"flashcrowd: stratification correlation %.3f, want >= %.2f", p.last.StratCorr, b.size.minStratCorr)
	},
}

// churn is a generated piece-trading swarm under Poisson churn with a
// tracker outage, 10% announce loss and a crash wave, checkpointed to disk
// as it runs. Its time goes to the serial piece-mode transfer; it is the
// only workload with fault and checkpoint work.
var churn = swarmWorkload{
	name:        "churn",
	spec:        churnSpec,
	checkpoints: true,
	tail:        0.99,
	gates: func(b *bench, p *passResult) {
		b.check(p.last.Completed > 0, "churn: no leecher completed")
		b.check(p.last.StaleEdges == 0, "churn: %d stale edges left after the crash window", p.last.StaleEdges)
		b.check(p.events["crash"] > 0, "churn: the crash wave crashed nobody")
		b.check(p.events["tracker_down"] == 1 && p.events["tracker_up"] == 1,
			"churn: tracker outage events down=%d up=%d, want 1 each", p.events["tracker_down"], p.events["tracker_up"])
		want := b.size.churnRounds / b.size.churnCheckpointEvery
		b.check(p.events["checkpoint"] == want, "churn: %d checkpoints written, want %d", p.events["checkpoint"], want)
	},
}

// churnSpec generates the churn workload's scenario. The seed drives the
// simulation; the shape is fixed so every seed does comparable work.
func churnSpec(seed uint64, sz sizes) btsim.ScenarioSpec {
	rounds := sz.churnRounds
	return btsim.ScenarioSpec{
		Name: "churn",
		Swarm: btsim.Options{
			Leechers:      sz.churnLeechers,
			Seeds:         20,
			Pieces:        128,
			PieceKbit:     512,
			NeighborCount: 10,
			Seed:          seed,
		},
		Rounds:   rounds,
		Arrivals: []btsim.ArrivalSpec{{Kind: "poisson", Rate: sz.churnRate}},
		Capacity: &btsim.CapacitySpec{Kind: "saroiu"},
		Departures: btsim.Departures{
			AbandonPerRound:  0.0005,
			SeedLingerRounds: 60,
			InitialSeedsStay: true,
		},
		Faults: &btsim.FaultsSpec{
			Injections: []btsim.FaultSpec{
				{Kind: btsim.FaultTrackerOutage, Start: rounds / 5, Rounds: rounds / 15},
				{Kind: btsim.FaultAnnounceLoss, Rate: 0.1},
				// The crash wave ends well before the horizon so the
				// failure-detection sweep drains every stale edge.
				{Kind: btsim.FaultCrash, Start: rounds * 2 / 5, Rounds: rounds / 5, Rate: 0.002},
			},
		},
		SampleEvery: 1,
	}
}

func runFlashcrowd(b *bench) error { return runSwarm(b, flashcrowd) }
func runChurn(b *bench) error      { return runSwarm(b, churn) }

// topPhases are the telemetry phases the scenario loop runs one after
// another; with the unattributed remainder they make up a round's wall
// time.
var topPhases = []string{"announce", "choke", "transfer", "fault_sweep", "sample", "checkpoint_write"}

// passResult is one scenario run's measurements.
type passResult struct {
	workers   int
	setup     time.Duration // spec compile to the round-0 sample
	wall      time.Duration // RunObserver call to return
	intervals []float64     // ms between consecutive samples (rounds 1..R-1)
	digest    uint64
	last      btsim.SeriesPoint
	events    map[string]int
	joined    int

	// Traced passes only: the loop's wall time from the round-0 sample to
	// OnDone, and the phase and shard time inside it (ms).
	loopWall float64
	phases   map[string]float64
	counters map[string]uint64
}

// swarmObserver streams a pass: it hashes every sample, event and the
// closing snapshot, and times rounds. With a telemetry recorder attached
// it times rounds at the telemetry callback instead, so each round's wall
// interval holds exactly the phase time between two snapshots.
type swarmObserver struct {
	p      *passResult
	dg     *digest
	rec    *telemetry.Recorder
	tr     *tracer
	parent int

	done     btsim.Metrics
	n        int
	start    time.Time // before the spec compiles
	boundary time.Time
	prev     map[string]uint64 // cumulative phase ns at the last boundary
}

func (o *swarmObserver) OnSample(pt btsim.SeriesPoint) {
	d := o.dg
	d.int(pt.Round)
	d.int(pt.Present)
	d.int(pt.Leechers)
	d.int(pt.Seeds)
	d.int(pt.Joined)
	d.int(pt.Departed)
	d.int(pt.Completed)
	d.f64(pt.MeanDegree)
	d.f64(pt.StratCorr)
	for _, v := range pt.ShareRatioByClass {
		d.f64(v)
	}
	d.int(pt.StaleEdges)
	d.int(pt.Crashed)
	d.int(pt.AnnounceFailures)
	d.int(pt.AnnounceRetries)
	o.p.last = pt
	if o.rec == nil {
		o.tick(time.Now(), nil, false)
	}
}

func (o *swarmObserver) OnEvent(ev btsim.RunEvent) {
	o.dg.int(ev.Round)
	o.dg.str(ev.Kind)
	o.dg.int(ev.Departed)
	o.dg.int(ev.Edges)
	o.p.events[ev.Kind]++
}

func (o *swarmObserver) OnTelemetry(_ int, snap btsim.TelemetrySnapshot) {
	o.tick(time.Now(), &snap, false)
}

func (o *swarmObserver) OnDone(m btsim.Metrics) {
	if o.rec != nil {
		// The closing interval: a last checkpoint write (if any) and the
		// roster snapshot handed to OnDone.
		snap := o.rec.Snapshot()
		o.tick(time.Now(), &snap, true)
	}
	o.done = m
}

// hashMetrics adds the closing roster snapshot to a pass digest. It runs
// after the pass is timed.
func hashMetrics(d *digest, m btsim.Metrics) {
	d.int(m.Round)
	d.int(m.CompletedLeechers)
	d.int(m.Present)
	d.int(m.PresentSeeds)
	d.int(m.TotalDeparted)
	d.int(m.TotalCrashed)
	d.f64(m.MeanCompletionRound)
	d.f64(m.StratCorrelation)
	for i := range m.Peers {
		pm := &m.Peers[i]
		d.int(pm.Rank)
		d.bool(pm.IsSeed)
		d.bool(pm.Departed)
		d.int(pm.DoneRound)
		d.f64(pm.TotalUp)
		d.f64(pm.TotalDown)
	}
}

// tick closes the interval ending now: a round when a sample arrived, or
// the closing interval up to OnDone. Traced passes also split the interval
// into phase deltas and the unattributed remainder, recorded as a span.
func (o *swarmObserver) tick(now time.Time, snap *btsim.TelemetrySnapshot, closing bool) {
	defer func() { o.boundary = now; o.n++ }()
	if o.n == 0 {
		// Round 0's interval is the set-up: spec compile, swarm build and
		// the round-0 sample. It is no round.
		o.p.setup = now.Sub(o.start)
		if snap != nil {
			o.prev = phaseTotals(snap)
		}
		return
	}
	dt := ms(now.Sub(o.boundary))
	if !closing {
		o.p.intervals = append(o.p.intervals, dt)
	}
	if snap == nil {
		return
	}
	cur := phaseTotals(snap)
	attrs := map[string]float64{"round": float64(o.p.last.Round)}
	top := 0.0
	for name, v := range cur {
		delta := float64(v-o.prev[name]) / 1e6
		o.p.phases[name] += delta
		if delta > 0 {
			attrs[name+"_ms"] = delta
		}
		if slices.Contains(topPhases, name) {
			top += delta
		}
	}
	attrs["unattributed_ms"] = dt - top
	o.p.loopWall += dt
	o.prev = cur
	name := "btsim.round"
	if closing {
		name = "btsim.done"
	}
	o.tr.add(o.parent, name, o.boundary, now, attrs)
}

func phaseTotals(snap *btsim.TelemetrySnapshot) map[string]uint64 {
	m := make(map[string]uint64, len(snap.Phases))
	for _, ph := range snap.Phases {
		m[ph.Name] = ph.SumNs
	}
	return m
}

// swarmPass runs the scenario once at the given worker count, traced when
// rec is non-nil.
func swarmPass(b *bench, w swarmWorkload, workers int, rec *telemetry.Recorder) (*passResult, error) {
	runtime.GC()
	compileStart := time.Now()
	sc, err := w.spec(b.seed, b.size).Compile()
	if err != nil {
		return nil, err
	}
	sc.StepWorkers = workers
	sc.Telemetry = rec
	if w.checkpoints {
		dir, err := os.MkdirTemp(b.out, w.name+"-checkpoints-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		sc.CheckpointEvery = b.size.churnCheckpointEvery
		sc.CheckpointDir = dir
	}
	p := &passResult{workers: workers, events: map[string]int{}, phases: map[string]float64{}}
	obs := &swarmObserver{p: p, dg: newDigest(), rec: rec, tr: b.spans, start: compileStart}
	if rec != nil {
		obs.parent = b.spans.begin(0, w.name+".pass")
	}
	start := time.Now()
	err = sc.RunObserver(obs)
	p.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	hashMetrics(obs.dg, obs.done)
	p.digest = obs.dg.sum()
	p.joined = len(obs.done.Peers)
	if rec != nil {
		b.spans.end(obs.parent, map[string]float64{"workers": float64(workers)})
		p.counters = map[string]uint64{}
		for _, c := range rec.Snapshot().Counters {
			p.counters[c.Name] = c.Value
		}
	}
	return p, nil
}

func runSwarm(b *bench, w swarmWorkload) error {
	var passes []*passResult
	gate := func(p *passResult) {
		if len(passes) > 0 {
			b.check(p.digest == passes[0].digest,
				"%s: pass %d (workers %d) stream digest %x differs from pass 1 (%x)",
				w.name, len(passes)+1, p.workers, p.digest, passes[0].digest)
		}
		w.gates(b, p)
		passes = append(passes, p)
	}
	if b.trace {
		return traceSwarm(b, w, gate)
	}
	// Round percentiles are taken per pass and reported as the median
	// across passes, so one disturbed pass does not move them.
	var setups, walls, p50s, tails []float64
	rounds := 0
	start := time.Now()
	for len(passes) < 2 || time.Now().Add(passes[len(passes)-1].wall).Before(b.deadline(start)) {
		p, err := swarmPass(b, w, b.workers, nil)
		if err != nil {
			return err
		}
		gate(p)
		setups = append(setups, p.setup.Seconds())
		walls = append(walls, p.wall.Seconds())
		p50s = append(p50s, median(p.intervals))
		tails = append(tails, quantile(p.intervals, w.tail))
		rounds += len(p.intervals)
	}
	b.set("setup_s", median(setups))
	b.set("run_s", median(walls))
	b.set("step_p50_ms", median(p50s))
	b.set("step_tail_ms", median(tails))
	b.set("peak_rss_mb", peakRSSMB())
	b.samples("setup_s", len(setups))
	b.samples("run_s", len(walls))
	b.samples("step_p50_ms", rounds)
	b.samples("step_tail_ms", rounds)
	b.report["step"] = fmt.Sprintf("simulation round; percentiles per pass (%d rounds each), median over %d passes", rounds/len(walls), len(walls))
	b.report["step_tail_quantile"] = w.tail
	b.report["pass_s"] = walls
	b.report["setup_s"] = setups
	last := passes[len(passes)-1]
	b.report["strat_corr"] = last.last.StratCorr
	b.report["completed"] = last.last.Completed
	b.report["joined"] = last.joined
	return nil
}

// traceSwarm is the traced run: an untraced pass for the overhead base,
// then traced passes at the configured worker count and at one worker.
// Every pass must produce the same stream.
func traceSwarm(b *bench, w swarmWorkload, gate func(*passResult)) error {
	base, err := swarmPass(b, w, b.workers, nil)
	if err != nil {
		return err
	}
	gate(base)
	var traced time.Duration
	// Per traced pass: the round wall time, the phases inside it, the
	// remainder and the whole pass's wall time (which also holds the
	// build before the round-0 sample).
	account := map[string]map[string]float64{}
	for i, tp := range []struct {
		workers          int
		prefix, ckprefix string
	}{{b.workers, "btsim.", "checkpoint."}, {1, "btsim.w1.", "checkpoint.w1."}} {
		p, err := swarmPass(b, w, tp.workers, telemetry.New())
		if err != nil {
			return err
		}
		gate(p)
		top := 0.0
		for _, name := range topPhases {
			top += p.phases[name]
		}
		unattributed := p.loopWall - top
		b.check(unattributed >= 0,
			"%s: phases (%.1f ms) exceed the measured round wall time (%.1f ms)", w.name, top, p.loopWall)
		b.set(tp.prefix+"round_wall_ms", p.loopWall)
		b.set(tp.prefix+"announce_ms", p.phases["announce"])
		b.set(tp.prefix+"choke_ms", p.phases["choke"])
		b.set(tp.prefix+"transfer_ms", p.phases["transfer"])
		b.set(tp.prefix+"sample_ms", p.phases["sample"])
		b.set(tp.prefix+"faults_ms", p.phases["fault_sweep"])
		b.set(tp.prefix+"unattributed_ms", unattributed)
		b.set(tp.ckprefix+"write_ms", p.phases["checkpoint_write"])
		account[tp.prefix] = map[string]float64{
			"round_wall": p.loopWall, "phases": top, "unattributed": unattributed, "pass_wall": ms(p.wall),
		}
		if i > 0 {
			continue
		}
		// Busy share of the sharded passes: choke always, transfer only in
		// content-unlimited swarms (piece-mode transfer runs serially).
		shard := p.phases["choke_shard"]
		sharded := p.phases["choke"]
		if send := p.phases["transfer_send"] + p.phases["transfer_recv"]; send > 0 {
			shard += send
			sharded += p.phases["transfer"]
		}
		b.set("btsim.shard_busy_ratio", ratio(shard, sharded*float64(tp.workers)))
		skips, rechokes := float64(p.counters["btsim_choke_skips_total"]), float64(p.counters["btsim_rechokes_total"])
		b.set("btsim.choke_skip_ratio", ratio(skips, rechokes+skips))
		b.set("btsim.announces", float64(p.counters["btsim_announces_total"]))
		b.set("btsim.announce_edges", float64(p.counters["btsim_announce_edges_total"]))
		b.set("btsim.rechokes", rechokes)
		b.set("checkpoint.bytes", float64(p.counters["btsim_checkpoint_bytes_total"]))
		b.set("checkpoint.writes", float64(p.counters["btsim_checkpoints_written_total"]))
		traced = p.wall
		b.report["traced_pass_s"] = p.wall.Seconds()
	}
	b.report["phase_account_ms"] = account
	// A second untraced pass after the traced ones, so the overhead base
	// is not biased by pass order.
	after, err := swarmPass(b, w, b.workers, nil)
	if err != nil {
		return err
	}
	gate(after)
	untraced := (base.wall + after.wall) / 2
	b.set("trace_overhead_ratio", ratio(traced.Seconds(), untraced.Seconds()))
	b.report["untraced_pass_s"] = []float64{base.wall.Seconds(), after.wall.Seconds()}
	return nil
}
