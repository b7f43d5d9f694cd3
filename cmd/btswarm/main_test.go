package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stratmatch/internal/btsim"
)

func TestRunSmallSwarm(t *testing.T) {
	err := run([]string{
		"-leechers", "20", "-seeds", "1", "-pieces", "16",
		"-rounds", "60", "-neighbors", "5",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUnlimitedRegime(t *testing.T) {
	err := run([]string{
		"-leechers", "30", "-seeds", "0", "-unlimited",
		"-rounds", "120", "-neighbors", "8",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUniformCapacity(t *testing.T) {
	err := run([]string{
		"-leechers", "15", "-seeds", "1", "-pieces", "8",
		"-rounds", "50", "-uniform-kbps", "500", "-neighbors", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilDone(t *testing.T) {
	err := run([]string{
		"-leechers", "10", "-seeds", "1", "-pieces", "8",
		"-rounds", "500", "-until-done", "-neighbors", "4",
		"-uniform-kbps", "800",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarios(t *testing.T) {
	// The whole catalog, including the spec-era workloads (tracereplay,
	// seedstarve, slowquit).
	for _, name := range btsim.ScenarioNames() {
		if err := run([]string{"-scenario", name, "-scenario-scale", "0.1"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	return capture(t, &os.Stdout, f)
}

// capture runs f with *file (os.Stdout or os.Stderr) redirected into a
// pipe and returns what f wrote to it.
func capture(t *testing.T, file **os.File, f func() error) string {
	t.Helper()
	old := *file
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*file = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	ferr := f()
	w.Close()
	*file = old
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestDumpSpecLoadsAndRuns is the CLI serialization loop: -dump-spec
// output, written to a file, must load through -spec and run — in both
// text and jsonl emit modes.
func TestDumpSpecLoadsAndRuns(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-dump-spec", "flashcrowd", "-scenario-scale", "0.1", "-seed", "5"})
	})
	path := filepath.Join(t.TempDir(), "flash.json")
	if err := os.WriteFile(path, []byte(out), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path}); err != nil {
		t.Fatalf("text run of dumped spec: %v", err)
	}
	jsonl := captureStdout(t, func() error {
		return run([]string{"-spec", path, "-emit", "jsonl", "-sample-every", "100"})
	})
	lines := strings.Split(strings.TrimSpace(jsonl), "\n")
	if len(lines) < 2 {
		t.Fatalf("jsonl emitted %d lines, want at least a sample and a done", len(lines))
	}
	for _, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("jsonl line is not JSON: %q: %v", line, err)
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["type"] != "done" {
		t.Fatalf("last jsonl line has type %v, want done", last["type"])
	}
}

// TestRunSpecScaled: -scenario-scale rescales a loaded spec file.
func TestRunSpecScaled(t *testing.T) {
	spec, err := btsim.NamedSpec("poisson", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "poisson.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path, "-scenario-scale", "0.05", "-v"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name":"x","rounds":0}`), 0o600); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-spec", path})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	if !strings.Contains(err.Error(), "rounds") {
		t.Fatalf("error does not name the offending field: %v", err)
	}
	if err := run([]string{"-spec", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("missing spec file accepted")
	}
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, []byte(`{"name":"x","rounds":10,"swarm":{"leechers":5,"pieces":8},"arivals":[]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", typo}); err == nil {
		t.Fatal("spec with a misspelled field accepted")
	}
}

// TestRunRejectsBadScenarioFlags pins the flag-validation satellite:
// negative -sample-every and non-positive -scenario-scale used to be
// silently mangled; now they are errors, as are conflicting or unknown
// modes.
func TestRunRejectsBadScenarioFlags(t *testing.T) {
	cases := [][]string{
		{"-scenario", "poisson", "-sample-every", "-1"},
		{"-scenario", "poisson", "-scenario-scale", "-2"},
		{"-scenario", "poisson", "-scenario-scale", "0"},
		{"-scenario", "poisson", "-emit", "xml"},
		{"-scenario", "poisson", "-spec", "whatever.json"},
		{"-dump-spec", "nope"},
		{"-leechers", "10", "-emit", "jsonl"}, // jsonl needs a scenario/spec run
		// -dump-spec prints a spec and exits: combining it with a run mode
		// must be a loud error, not a silently ignored flag.
		{"-dump-spec", "flashcrowd", "-spec", "whatever.json"},
		{"-dump-spec", "flashcrowd", "-scenario", "poisson"},
		{"-dump-spec", "flashcrowd", "-emit", "jsonl"},
		// -dump-spec runs no simulation, so asking it to record telemetry
		// (directly or via the flags that imply it) is a contradiction.
		{"-dump-spec", "flashcrowd", "-telemetry"},
		{"-dump-spec", "flashcrowd", "-debug-addr", "127.0.0.1:0"},
		{"-dump-spec", "flashcrowd", "-trace", "out.trace"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestListScenarios(t *testing.T) {
	if err := run([]string{"-list-scenarios"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-leechers", "0"}); err == nil {
		t.Fatal("0 leechers accepted")
	}
}

// TestJsonlFaultStreams pins the fault-injection CLI contract: every fault
// catalog entry streams deterministically (same seed ⇒ byte-identical
// jsonl), samples carry the fault counters, and the closing summary carries
// total_crashed.
func TestJsonlFaultStreams(t *testing.T) {
	for _, name := range btsim.FaultScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			args := []string{"-scenario", name, "-scenario-scale", "0.15", "-seed", "9", "-emit", "jsonl"}
			out := captureStdout(t, func() error { return run(args) })
			if again := captureStdout(t, func() error { return run(args) }); again != out {
				t.Fatal("jsonl stream not byte-identical across identical runs")
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var first, last map[string]any
			if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if _, ok := first["stale_edges"]; !ok {
				t.Fatalf("fault-run sample lacks fault counters: %s", lines[0])
			}
			if _, ok := last["total_crashed"]; !ok || last["type"] != "done" {
				t.Fatalf("fault-run summary lacks total_crashed: %s", lines[len(lines)-1])
			}
		})
	}
}

// TestJsonlFaultFreeByteIdentical: a spec with an empty faults block must
// stream byte-identically to the same spec without the block, and neither
// stream may carry fault counters.
func TestJsonlFaultFreeByteIdentical(t *testing.T) {
	spec, err := btsim.NamedSpec("poisson", 4, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	write := func(sp btsim.ScenarioSpec, file string) string {
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), file)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plainPath := write(spec, "plain.json")
	spec.Faults = &btsim.FaultsSpec{}
	zeroPath := write(spec, "zero.json")
	stream := func(path string) string {
		return captureStdout(t, func() error {
			return run([]string{"-spec", path, "-emit", "jsonl"})
		})
	}
	plain, zero := stream(plainPath), stream(zeroPath)
	if plain != zero {
		t.Fatal("an empty faults block changed the jsonl stream")
	}
	if strings.Contains(plain, "stale_edges") || strings.Contains(plain, "total_crashed") {
		t.Fatal("fault-free stream carries fault counters")
	}
}
