package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestParseBenchLineCustomMetrics(t *testing.T) {
	b, ok := parseBenchLine(
		"BenchmarkTrackerdSustainedLoad-8   3   1200000 ns/op   8521.33 announces/sec   0.412 p50-ms   1.975 p99-ms   1024 B/op   12 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Name != "BenchmarkTrackerdSustainedLoad" || b.Iterations != 3 || b.NsPerOp != 1200000 {
		t.Fatalf("parsed %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 1024 || b.AllocsPerOp == nil || *b.AllocsPerOp != 12 {
		t.Fatalf("benchmem fields: %+v", b)
	}
	want := map[string]float64{"announces/sec": 8521.33, "p50-ms": 0.412, "p99-ms": 1.975}
	if len(b.Metrics) != len(want) {
		t.Fatalf("metrics = %v; want %v", b.Metrics, want)
	}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Fatalf("metric %s = %v; want %v", unit, b.Metrics[unit], v)
		}
	}
}

// TestParseRecordsCoreCount pins that the GOMAXPROCS suffix stripped from
// benchmark names and the machine's core count land in the context. go test
// omits the suffix at GOMAXPROCS=1, so a bare name counts as 1.
func TestParseRecordsCoreCount(t *testing.T) {
	doc, err := parse(strings.NewReader(`goos: linux
cpu: Test CPU @ 2.10GHz
BenchmarkA-2   3   100 ns/op
BenchmarkB/workers=4-2   3   200 ns/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Context["gomaxprocs"]; got != "2" {
		t.Fatalf("gomaxprocs = %q; want \"2\"", got)
	}
	if got, want := doc.Context["nproc"], strconv.Itoa(runtime.NumCPU()); got != want {
		t.Fatalf("nproc = %q; want %q", got, want)
	}
	if doc.Context["cpu"] != "Test CPU @ 2.10GHz" || len(doc.Benchmarks) != 2 || doc.Benchmarks[1].Name != "BenchmarkB/workers=4" {
		t.Fatalf("parsed %+v", doc)
	}

	// -cpu 1,4 mixes suffixed and bare lines: every distinct value is kept.
	doc, err = parse(strings.NewReader("BenchmarkA   3   100 ns/op\nBenchmarkA-4   3   60 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Context["gomaxprocs"]; got != "1,4" {
		t.Fatalf("gomaxprocs = %q; want \"1,4\"", got)
	}

	// No benchmark lines: no GOMAXPROCS to report.
	doc, err = parse(strings.NewReader("PASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Context["gomaxprocs"]; ok {
		t.Fatalf("gomaxprocs recorded without benchmarks: %v", doc.Context)
	}
}

func TestHigherIsBetter(t *testing.T) {
	for unit, want := range map[string]bool{
		"announces/sec": true,
		"MB/s":          true,
		"p99-ms":        false,
		"stale-edges":   false,
	} {
		if got := higherIsBetter(unit); got != want {
			t.Fatalf("higherIsBetter(%q) = %v; want %v", unit, got, want)
		}
	}
}

// TestCompareDirectionAware pins that a throughput drop and a latency rise
// are both flagged, while movement in the healthy direction is not.
func TestCompareDirectionAware(t *testing.T) {
	old := Document{Benchmarks: []Benchmark{{
		Name: "BenchmarkX", NsPerOp: 1000,
		Metrics: map[string]float64{"announces/sec": 10000, "p99-ms": 2.0},
	}}}
	path := filepath.Join(t.TempDir(), "old.json")
	raw, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	report := func(perSec, p99 float64) string {
		var sb strings.Builder
		doc := Document{Benchmarks: []Benchmark{{
			Name: "BenchmarkX", NsPerOp: 1000,
			Metrics: map[string]float64{"announces/sec": perSec, "p99-ms": p99},
		}}}
		if err := compare(doc, path, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	// Throughput collapse: regression. Latency improvement alongside must
	// not mask it.
	out := report(5000, 1.0)
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "announces/sec") {
		t.Fatalf("throughput drop not flagged:\n%s", out)
	}
	// Latency blowup: regression.
	out = report(10000, 5.0)
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "p99-ms") {
		t.Fatalf("latency rise not flagged:\n%s", out)
	}
	// Both moving the healthy way: clean.
	out = report(20000, 1.0)
	if strings.Contains(out, "REGRESSION") {
		t.Fatalf("healthy movement flagged:\n%s", out)
	}
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("missing clean summary:\n%s", out)
	}
}
