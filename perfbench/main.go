// Command perfbench is the repository benchmark: four end-to-end workloads
// that drive the simulator, the paper-figure engine and the tracker daemon
// through their public APIs, check the outputs, and print one JSON result
// line in the format BENCHMARK.json describes.
//
//	perfbench --workload flashcrowd|churn|figures|tracker --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
// separate traced run gives the per-layer metrics and writes its spans to
// $BENCH_OUT (default .bench_build). The line before the result is a
// report: the environment, sample counts behind every percentile, the
// failure ratio and workload-specific extras.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric of the BENCHMARK.json contract.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off. The
// "step" of a workload is its unit of latency: a simulation round
// (flashcrowd, churn), one experiments.Run call (figures), or one HTTP
// request at the reference rate, timed from its due time (tracker).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"step_p50_ms", "ms"},
	{"step_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every workload reports with tracing on. A
// workload that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	{"btsim.round_wall_ms", "ms"},
	{"btsim.announce_ms", "ms"},
	{"btsim.choke_ms", "ms"},
	{"btsim.transfer_ms", "ms"},
	{"btsim.faults_ms", "ms"},
	{"btsim.sample_ms", "ms"},
	{"btsim.unattributed_ms", "ms"},
	{"btsim.shard_busy_ratio", "ratio"},
	{"btsim.choke_skip_ratio", "ratio"},
	{"btsim.announces", "count"},
	{"btsim.announce_edges", "count"},
	{"btsim.rechokes", "count"},
	{"btsim.w1.round_wall_ms", "ms"},
	{"btsim.w1.announce_ms", "ms"},
	{"btsim.w1.choke_ms", "ms"},
	{"btsim.w1.transfer_ms", "ms"},
	{"btsim.w1.sample_ms", "ms"},
	{"btsim.w1.faults_ms", "ms"},
	{"btsim.w1.unattributed_ms", "ms"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.writes", "count"},
	{"checkpoint.w1.write_ms", "ms"},
	{"trackerd.handler_p50_us", "us"},
	{"trackerd.handler_p99_us", "us"},
	{"trackerd.handout_us", "us"},
	{"trackerd.client_overhead_us", "us"},
	{"trackerd.queue_wait_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"figures.fig1_ms", "ms"},
	{"figures.fig9_ms", "ms"},
	{"figures.fig11_ms", "ms"},
	{"figures.fig6_ms", "ms"},
	{"figures.fig8_ms", "ms"},
	{"analytic.bmatching_ms", "ms"},
	{"analytic.montecarlo_ms", "ms"},
	{"par.task_busy_ratio", "ratio"},
	{"trace_overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state: its settings, the metrics and report it
// fills, and the correctness tally.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workers  int
	size     sizes
	out      string // directory for traces and scratch files

	spans   *tracer // nil when tracing is off
	metrics map[string]metric
	report  map[string]any

	attempted, failed int
	failures          []string
}

func newBench(workload string, seed uint64, seconds time.Duration, trace bool, size sizes, out string) *bench {
	b := &bench{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		workers:  runtime.NumCPU(),
		size:     size,
		out:      out,
		metrics:  map[string]metric{},
		report:   map[string]any{},
	}
	if trace {
		b.spans = newTracer()
	}
	b.report["env"] = environment(b)
	return b
}

func (b *bench) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				b.metrics[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// check counts one correctness gate (or one served operation) as
// attempted, and as failed when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf(format, args...))
		}
	}
}

// samples records the sample count behind a reported percentile.
func (b *bench) samples(name string, n int) {
	m, _ := b.report["samples"].(map[string]int)
	if m == nil {
		m = map[string]int{}
		b.report["samples"] = m
	}
	m[name] = n
}

// deadline is the measuring window's end, counted from start.
func (b *bench) deadline(start time.Time) time.Time { return start.Add(b.seconds) }

var workloads = map[string]func(*bench) error{
	"flashcrowd": runFlashcrowd,
	"churn":      runChurn,
	"figures":    runFigures,
	"tracker":    runTracker,
}

// execute runs the workload and assembles the result: exactly the
// end-to-end metrics with tracing off, exactly the per-layer metrics with
// tracing on.
func (b *bench) execute() (result, error) {
	run, ok := workloads[b.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, fmt.Errorf("unknown workload %q (known: %s)", b.workload, strings.Join(names, ", "))
	}
	if err := run(b); err != nil {
		return result{}, fmt.Errorf("%s: %w", b.workload, err)
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
		path, err := b.spans.write(b.out, fmt.Sprintf("trace-%s-s%d.json", b.workload, b.seed))
		if err != nil {
			return result{}, err
		}
		b.report["trace_file"] = path
		b.report["spans"] = len(b.spans.spans)
	}
	res := result{Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := b.metrics[d.name]
		switch {
		case ok:
			res.Metrics[d.name] = m
		case b.trace:
			res.Metrics[d.name] = metric{Value: 0, Unit: d.unit}
		default:
			return result{}, fmt.Errorf("%s: end-to-end metric %s not measured", b.workload, d.name)
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("%s: no operation attempted", b.workload)
	}
	res.Correct = res.Failed == 0
	b.report["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	if len(b.failures) > 0 {
		b.report["failures"] = b.failures
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload: flashcrowd, churn, figures or tracker")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, no positional arguments")
		os.Exit(2)
	}
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := newBench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, fullSize, out)
	res, err := b.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, b, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the report line and then the result line.
func emit(w io.Writer, b *bench, res result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"report": b.report}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// sizes are the workload dimensions. fullSize is what the benchmark runs;
// the smoke test shrinks them.
type sizes struct {
	// setupPerPass set-ups are timed before each figures pass or tracker
	// round, so set-up samples spread over the whole window. The swarm
	// workloads time set-up inside each pass instead.
	setupPerPass int

	flashScale   float64 // flashcrowd1m catalog scale
	minStratCorr float64 // flashcrowd's stratification gate

	churnLeechers        int
	churnRate            float64 // Poisson arrivals per round
	churnRounds          int
	churnCheckpointEvery int

	figScale, figSetupScale float64
	figMC, figSetupMC       int

	trackerSwarms      int
	trackerPreload     int       // joins before measuring
	trackerRefRate     float64   // requests/s for the latency metrics
	trackerRefShare    float64   // share of --seconds at the reference rate
	trackerBatch       int       // requests per in-process batch (run_s)
	trackerRounds      int       // reference windows and batches per run
	trackerLadder      []float64 // offered rates for max_announce_rate
	trackerLadderShare float64   // share of --seconds on the ladder
}

var fullSize = sizes{
	setupPerPass: 4,

	flashScale:   0.1,
	minStratCorr: 0.3,

	churnLeechers:        2000,
	churnRate:            8,
	churnRounds:          1500,
	churnCheckpointEvery: 125,

	figScale:      1,
	figSetupScale: 0.1,
	figMC:         1000,
	figSetupMC:    100,

	trackerSwarms:      64,
	trackerPreload:     3000,
	trackerRefRate:     2000,
	trackerRefShare:    0.3,
	trackerBatch:       30000,
	trackerRounds:      6,
	trackerLadder:      []float64{4000, 8000, 12000, 16000, 20000},
	trackerLadderShare: 0.3,
}
