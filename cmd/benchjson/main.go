// Command benchjson converts `go test -bench` output into a JSON document
// so the per-experiment performance trajectory can be tracked across PRs
// (scripts/bench.sh writes it to BENCH_results.json at the repository
// root).
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=3x -benchmem | benchjson > BENCH_results.json
//
// With --compare old.json it additionally diffs the fresh results against a
// previous document and prints a report to stderr flagging >20% ns/op or
// B/op regressions. Custom units reported via b.ReportMetric are captured
// too and compared direction-aware: throughput units ("/sec", "/s",
// "/op" counts excluded) regress when they shrink, everything else
// (latencies, sizes) when it grows. The report is informational: the exit
// code stays 0, so CI can surface regressions without blocking merges on
// benchmark noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one `go test -bench` result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp are present only with -benchmem.
	BytesPerOp  *int64 `json:"b_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom units the benchmark reported via b.ReportMetric
	// (e.g. "announces/sec", "p99-ms"), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// procs is the GOMAXPROCS the line ran at: its -N name suffix, which go
	// test omits at 1. It lands in the document context, not per benchmark.
	procs int
}

// Document is the emitted JSON shape.
type Document struct {
	// Context lines from the benchmark header (goos, goarch, pkg, cpu),
	// plus gomaxprocs (the distinct -N suffixes, comma-separated) and
	// nproc (runtime.NumCPU of the converting process).
	Context    map[string]string `json:"context"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	comparePath := flag.String("compare", "",
		"previous BENCH_results.json to diff against; regressions >20% in ns/op or B/op are reported to stderr (never changes the exit code)")
	flag.Parse()
	if err := run(*comparePath); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(comparePath string) error {
	doc, err := parse(os.Stdin)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if comparePath != "" {
		if err := compare(doc, comparePath, os.Stderr); err != nil {
			// A broken baseline must not fail the run: the comparison is a
			// non-blocking report by contract.
			fmt.Fprintln(os.Stderr, "benchjson: compare:", err)
		}
	}
	return nil
}

// parse reads `go test -bench` output and builds the document, recording
// the core count the benchmarks ran on next to the header context.
func parse(r io.Reader) (Document, error) {
	doc := Document{Context: map[string]string{}, Benchmarks: []Benchmark{}}
	procs := map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
				procs[b.procs] = true
			}
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"),
			strings.HasPrefix(line, "cpu:"):
			key, val, _ := strings.Cut(line, ":")
			doc.Context[key] = strings.TrimSpace(val)
		}
	}
	if err := sc.Err(); err != nil {
		return Document{}, err
	}
	if len(procs) > 0 {
		var strs []string
		for _, v := range slices.Sorted(maps.Keys(procs)) {
			strs = append(strs, strconv.Itoa(v))
		}
		doc.Context["gomaxprocs"] = strings.Join(strs, ",")
	}
	doc.Context["nproc"] = strconv.Itoa(runtime.NumCPU())
	return doc, nil
}

// regressionThreshold is the relative growth in ns/op or B/op past which a
// benchmark is flagged.
const regressionThreshold = 0.20

// compare diffs doc against the baseline document at path and writes a
// regression report to w (stderr in the CLI). It never alters the process
// exit code.
func compare(doc Document, path string, w io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old Document
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseline := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		baseline[b.Name] = b
	}
	regressions := 0
	fmt.Fprintf(w, "benchjson: comparing %d benchmarks against %s (flagging >%.0f%% regressions; custom units direction-aware)\n",
		len(doc.Benchmarks), path, regressionThreshold*100)
	seen := make(map[string]bool, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		seen[b.Name] = true
		prev, ok := baseline[b.Name]
		if !ok {
			fmt.Fprintf(w, "  NEW        %-28s %12.0f ns/op\n", b.Name, b.NsPerOp)
			continue
		}
		flagged := false
		if prev.NsPerOp > 0 && b.NsPerOp > prev.NsPerOp*(1+regressionThreshold) {
			fmt.Fprintf(w, "  REGRESSION %-28s ns/op %12.0f -> %12.0f (%+.1f%%)\n",
				b.Name, prev.NsPerOp, b.NsPerOp, 100*(b.NsPerOp/prev.NsPerOp-1))
			regressions++
			flagged = true
		}
		if prev.BytesPerOp != nil && b.BytesPerOp != nil && *prev.BytesPerOp > 0 &&
			float64(*b.BytesPerOp) > float64(*prev.BytesPerOp)*(1+regressionThreshold) {
			fmt.Fprintf(w, "  REGRESSION %-28s B/op  %12d -> %12d (%+.1f%%)\n",
				b.Name, *prev.BytesPerOp, *b.BytesPerOp,
				100*(float64(*b.BytesPerOp)/float64(*prev.BytesPerOp)-1))
			regressions++
			flagged = true
		}
		// Custom metrics, direction-aware: a throughput unit regresses by
		// falling, a latency/size unit by rising. Sorted for stable output.
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			v := b.Metrics[unit]
			pv, ok := prev.Metrics[unit]
			if !ok || pv <= 0 {
				continue
			}
			worse := v > pv*(1+regressionThreshold)
			if higherIsBetter(unit) {
				worse = v < pv*(1-regressionThreshold)
			}
			if worse {
				fmt.Fprintf(w, "  REGRESSION %-28s %-14s %12.2f -> %12.2f (%+.1f%%)\n",
					b.Name, unit, pv, v, 100*(v/pv-1))
				regressions++
				flagged = true
			}
		}
		if !flagged && prev.NsPerOp > 0 && b.NsPerOp < prev.NsPerOp*(1-regressionThreshold) {
			fmt.Fprintf(w, "  improved   %-28s ns/op %12.0f -> %12.0f (%+.1f%%)\n",
				b.Name, prev.NsPerOp, b.NsPerOp, 100*(b.NsPerOp/prev.NsPerOp-1))
		}
	}
	// Baseline entries absent from the fresh run are the failure the report
	// exists to surface (renames, deletions, a suite that died mid-run) —
	// count them as regressions so they cannot hide behind a clean summary.
	for _, b := range old.Benchmarks {
		if !seen[b.Name] {
			fmt.Fprintf(w, "  MISSING    %-28s present in baseline, absent from this run\n", b.Name)
			regressions++
		}
	}
	if regressions == 0 {
		fmt.Fprintln(w, "benchjson: no regressions past the threshold")
	} else {
		fmt.Fprintf(w, "benchjson: %d regression(s) past the threshold (report only; not failing the build)\n", regressions)
	}
	return nil
}

// parseBenchLine parses e.g.
//
//	BenchmarkSwarm-8   3   13553642 ns/op   164581 B/op   473 allocs/op
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false
	}
	name, procs := fields[0], 1
	// Strip the -GOMAXPROCS suffix so names are stable across runners.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if v, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], v
		}
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, NsPerOp: ns, procs: procs}
	for i := 4; i+1 < len(fields); i += 2 {
		switch unit := fields[i+1]; unit {
		case "B/op":
			if v, err := strconv.ParseInt(fields[i], 10, 64); err == nil {
				b.BytesPerOp = &v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(fields[i], 10, 64); err == nil {
				b.AllocsPerOp = &v
			}
		default:
			// Anything else is a b.ReportMetric custom unit.
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
	}
	return b, true
}

// higherIsBetter classifies a custom metric unit's direction: rates
// ("announces/sec", "MB/s", "ops/sec") regress when they shrink; everything
// else — latencies ("p99-ms"), sizes, counts — regresses when it grows.
func higherIsBetter(unit string) bool {
	return strings.Contains(unit, "/sec") || strings.HasSuffix(unit, "/s")
}
