package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"stratmatch/internal/btsim"
	"stratmatch/internal/telemetry"
)

// tinySize shrinks every workload to a smoke-test size. The figures run at
// the experiment suite's pinned test configuration (scale 0.12, 120
// Monte-Carlo draws, seed 7), where every qualitative check passes.
var tinySize = sizes{
	setupPerPass: 1,

	flashScale:   0.001,
	minStratCorr: 0.1,

	churnLeechers:        80,
	churnRate:            0.5,
	churnRounds:          300,
	churnCheckpointEvery: 50,

	figScale:      0.12,
	figSetupScale: 0.05,
	figMC:         120,
	figSetupMC:    20,

	trackerSwarms:      8,
	trackerPreload:     100,
	trackerRefRate:     500,
	trackerRefShare:    0.5,
	trackerBatch:       200,
	trackerRounds:      2,
	trackerLadder:      []float64{500, 1000},
	trackerLadderShare: 0.3,
}

func runTiny(t *testing.T, workload string, trace bool, size sizes) (result, *bench) {
	t.Helper()
	b := newBench(workload, 7, time.Second, trace, size, t.TempDir())
	res, err := b.execute()
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	var out bytes.Buffer
	if err := emit(&out, b, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("%s: result keys %s", workload, got)
	}
	return res, b
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks each emits exactly its metric set with units, and
// passes its correctness gates.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range []string{"flashcrowd", "churn", "figures", "tracker"} {
		for _, trace := range []bool{false, true} {
			res, b := runTiny(t, w, trace, tinySize)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w, trace, res.Correct, res.Attempted, res.Failed, b.failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s unit %q, want %q", w, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || m.Value < 0:
					t.Errorf("%s: metric %s = %v", w, d.name, m.Value)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w, d.name)
				}
			}
			if trace && (w == "flashcrowd" || w == "churn") {
				checkPhaseAccount(t, w, res, b)
			}
		}
	}
}

// checkPhaseAccount: at both worker counts, the traced phases fit inside
// the measured round wall time (a non-negative remainder), and the round
// wall time fits inside the pass's own wall time, which also holds the
// build before the round-0 sample.
func checkPhaseAccount(t *testing.T, w string, res result, b *bench) {
	t.Helper()
	account, _ := b.report["phase_account_ms"].(map[string]map[string]float64)
	for _, prefix := range []string{"btsim.", "btsim.w1."} {
		a := account[prefix]
		switch {
		case a == nil:
			t.Errorf("%s: no phase account for %s", w, prefix)
			continue
		case a["phases"] <= 0 || a["round_wall"] <= 0:
			t.Errorf("%s: %s phases %v ms in a round wall of %v ms, want both > 0", w, prefix, a["phases"], a["round_wall"])
		case a["unattributed"] < 0:
			t.Errorf("%s: %s phases (%v ms) exceed the round wall time (%v ms)", w, prefix, a["phases"], a["round_wall"])
		case a["round_wall"] > a["pass_wall"]:
			t.Errorf("%s: %s round wall %v ms exceeds the pass's wall time %v ms", w, prefix, a["round_wall"], a["pass_wall"])
		}
		if got := res.Metrics[prefix+"unattributed_ms"].Value; got != a["unattributed"] {
			t.Errorf("%s: %sunattributed_ms = %v, account says %v", w, prefix, got, a["unattributed"])
		}
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	if w == "churn" && (v("checkpoint.writes") == 0 || v("checkpoint.bytes") == 0 || v("btsim.faults_ms") == 0) {
		t.Errorf("churn: checkpoint writes %v, bytes %v, faults %v ms: want all > 0",
			v("checkpoint.writes"), v("checkpoint.bytes"), v("btsim.faults_ms"))
	}
}

type discard struct{}

func (discard) OnSample(btsim.SeriesPoint) {}
func (discard) OnEvent(btsim.RunEvent)     {}
func (discard) OnDone(btsim.Metrics)       {}

// TestTrackerMixMatchesChurn derives the tracker workload's announce mix
// again from the churn workload's swarm (full size, seed 1) and checks the
// constants in tracker.go agree with it.
func TestTrackerMixMatchesChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the churn workload at full size")
	}
	sc, err := churnSpec(1, fullSize).Compile()
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	sc.Telemetry = rec
	sc.StepWorkers = runtime.NumCPU()
	if err := sc.RunObserver(discard{}); err != nil {
		t.Fatal(err)
	}
	c := map[string]float64{}
	for _, ctr := range rec.Snapshot().Counters {
		c[ctr.Name] = float64(ctr.Value)
	}
	joins := c["btsim_joins_total"]
	reannounces := c["btsim_announces_total"] - c["btsim_announce_failures_total"] - joins
	stops := c["btsim_departs_total"]
	total := joins + reannounces + stops
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"join", joins / total, joinShare},
		{"re-announce", reannounces / total, reannounceShare},
		{"stop", stops / total, stopShare},
	} {
		if math.Abs(m.got-m.want) > 0.01 {
			t.Errorf("%s share %.4f measured on the churn swarm, tracker.go uses %.4f", m.name, m.got, m.want)
		}
	}
}

// TestFailedGateReported: a run whose correctness gate fails still reports
// its metrics, with the failure counted and correct false.
func TestFailedGateReported(t *testing.T) {
	size := tinySize
	size.minStratCorr = 2 // no correlation reaches 2
	res, _ := runTiny(t, "flashcrowd", false, size)
	if res.Correct || res.Failed == 0 {
		t.Errorf("impossible gate: correct=%v failed=%d, want a reported failure", res.Correct, res.Failed)
	}
}

func TestValidResponse(t *testing.T) {
	ann := request{op: opJoin, swarm: "s", peer: "p1"}
	peers := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "q" + string(rune('a'+i%26)) + strings.Repeat("x", i/26)
		}
		return out
	}
	body := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	type handout struct {
		Swarm string   `json:"swarm"`
		Peer  string   `json:"peer"`
		Added int      `json:"added"`
		Peers []string `json:"peers"`
	}
	cases := []struct {
		name string
		req  request
		body []byte
		want bool
	}{
		{"full handout", ann, body(handout{"s", "p1", 20, peers(20)}), true},
		{"added above NeighborCount", ann, body(handout{"s", "p1", 21, peers(21)}), false},
		{"list above MaxNeighbors", ann, body(handout{"s", "p1", 0, peers(49)}), false},
		{"self in list", ann, body(handout{"s", "p1", 1, []string{"p1"}}), false},
		{"duplicate peer", ann, body(handout{"s", "p1", 2, []string{"q", "q"}}), false},
		{"wrong peer echoed", ann, body(handout{"s", "p2", 0, nil}), false},
		{"not json", ann, []byte("oops"), false},
		{"stop", request{op: opStop, swarm: "s", peer: "p1"}, []byte(`{"swarm":"s","peer":"p1","stopped":true}`), true},
		{"scrape", request{op: opScrape, swarm: "s"}, []byte(`{"swarm":"s","present":3,"total_joined":5}`), true},
		{"scrape present above joined", request{op: opScrape, swarm: "s"}, []byte(`{"swarm":"s","present":6,"total_joined":5}`), false},
	}
	for _, c := range cases {
		if got := validResponse(c.req, c.body); got != c.want {
			t.Errorf("%s: valid = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
