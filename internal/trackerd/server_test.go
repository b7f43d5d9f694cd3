package trackerd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stratmatch/internal/btsim"
	"stratmatch/internal/emit"
	"stratmatch/internal/telemetry"
)

// offlineJSONL renders the reference output: the exact bytes
// `btswarm -spec FILE -emit jsonl` prints for the spec.
func offlineJSONL(t *testing.T, spec btsim.ScenarioSpec) []byte {
	t.Helper()
	sc, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	em := emit.New(&buf, spec.HasFaults(), nil)
	if err := sc.RunObserver(em); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSpec(t *testing.T, url string, spec btsim.ScenarioSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerRunStreamMatchesOffline pins the run-submission contract: the
// chunked POST /runs response is byte-identical to the offline jsonl
// emitter's output for the same spec — for a fault-free scenario and a
// fault-injecting one (which adds the fault counter columns).
func TestServerRunStreamMatchesOffline(t *testing.T) {
	_, ts := newTestServer(t, Config{Telemetry: telemetry.New()})
	for i, name := range []string{"poisson", "trackerdown"} {
		spec, err := btsim.NamedSpec(name, 46, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		want := offlineJSONL(t, spec)

		resp := postSpec(t, ts.URL, spec)
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s: Content-Type %q", name, ct)
		}
		if id := resp.Header.Get("X-Run-Id"); id != fmt.Sprint(i) {
			t.Fatalf("%s: X-Run-Id %q; want %d", name, id, i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed output differs from offline emitter\nstream %d bytes, offline %d bytes\nstream head: %.200s\noffline head: %.200s",
				name, len(got), len(want), got, want)
		}
	}
}

// slowSpec is a scenario long enough to interrupt mid-run: a small swarm
// over many rounds, sampled every round.
func slowSpec(seed uint64) btsim.ScenarioSpec {
	return btsim.ScenarioSpec{
		Name:        "slowrun",
		Swarm:       btsim.Options{Leechers: 30, Seeds: 2, Pieces: 64, Seed: seed},
		Rounds:      200000,
		SampleEvery: 1,
	}
}

// readLines streams lines from the response until fn says stop or EOF.
func readLines(t *testing.T, body io.Reader, fn func(line string) bool) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if !fn(sc.Text()) {
			break
		}
	}
	return lines
}

// TestServerCancelRun cancels a streaming run over DELETE /runs/{id}: the
// stream must end with a suspended trailer naming a resumable checkpoint,
// and the status API must report the suspension.
func TestServerCancelRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Telemetry: telemetry.New()})
	resp := postSpec(t, ts.URL, slowSpec(46))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Run-Id")

	cancelled := false
	lines := readLines(t, resp.Body, func(line string) bool {
		if !cancelled && strings.Contains(line, `"type":"sample"`) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+id, nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("DELETE: %v", err)
				return false
			}
			io.Copy(io.Discard, dresp.Body)
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusAccepted {
				t.Errorf("DELETE status %d", dresp.StatusCode)
			}
			cancelled = true
		}
		return true
	})
	if len(lines) == 0 {
		t.Fatal("no stream output before cancellation")
	}
	last := lines[len(lines)-1]
	var trailer struct {
		Type   string `json:"type"`
		Round  int    `json:"round"`
		Resume string `json:"resume"`
	}
	if err := json.Unmarshal([]byte(last), &trailer); err != nil || trailer.Type != "suspended" {
		t.Fatalf("stream did not end with a suspended trailer: %q", last)
	}
	if trailer.Resume == "" || trailer.Round < 0 {
		t.Fatalf("suspended trailer lacks resume info: %+v", trailer)
	}

	sresp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.State != "suspended" || st.Resume != trailer.Resume {
		t.Fatalf("status after cancel = %+v; want suspended at %s", st, trailer.Resume)
	}
}

// TestServerDrainResumeStitch is the crash-recovery contract end to end:
// drain suspends an in-flight run to a checkpoint, and resuming that
// checkpoint offline continues the stream byte-identically — streamed
// prefix (minus the suspended trailer) + resumed output == the bytes of an
// uninterrupted run.
func TestServerDrainResumeStitch(t *testing.T) {
	spec := slowSpec(47)
	srv, ts := newTestServer(t, Config{Telemetry: telemetry.New()})

	resp := postSpec(t, ts.URL, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	// Drain once the run has streamed a few samples.
	drained := make(chan []RunStatus, 1)
	samples := 0
	lines := readLines(t, resp.Body, func(line string) bool {
		if strings.Contains(line, `"type":"sample"`) {
			samples++
			if samples == 3 {
				go func() { drained <- srv.Drain() }()
			}
		}
		return true
	})
	suspended := <-drained
	if len(suspended) != 1 {
		t.Fatalf("drain suspended %d runs; want 1", len(suspended))
	}
	resumeDir := suspended[0].Resume
	if resumeDir == "" {
		t.Fatal("suspended run has no resume dir")
	}

	// A drained daemon refuses new submissions.
	r2 := postSpec(t, ts.URL, spec)
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission after drain: status %d; want 503", r2.StatusCode)
	}

	// Strip the suspended trailer; everything before it is the prefix.
	if len(lines) == 0 || !strings.Contains(lines[len(lines)-1], `"type":"suspended"`) {
		t.Fatalf("stream did not end with suspended trailer; last %q", lines[len(lines)-1])
	}
	prefix := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if len(lines) == 1 {
		prefix = ""
	}

	// Resume offline from the daemon's checkpoint, exactly as
	// `btswarm -resume <dir> -emit jsonl` would.
	rspec, err := btsim.ResumeSpec(resumeDir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := rspec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc.ResumeFrom = resumeDir
	var resumed bytes.Buffer
	em := emit.New(&resumed, rspec.HasFaults(), nil)
	if err := sc.RunObserver(em); err != nil {
		t.Fatal(err)
	}

	// The uninterrupted reference run. slowSpec is heavy at full length, so
	// shorten both sides consistently: the stitch property holds for any
	// horizon past the suspension round, and the resumed run above already
	// ran to the spec'd end — so compare against the full offline run.
	want := offlineJSONL(t, spec)
	got := prefix + resumed.String()
	if got != string(want) {
		t.Fatalf("stitched stream differs from uninterrupted run: stitched %d bytes, reference %d bytes",
			len(got), len(want))
	}
}

// TestServerAnnounceScrapeHTTP covers the announce/scrape endpoints'
// surface: handouts, departures, per-swarm and global scrape, and the
// error paths.
func TestServerAnnounceScrapeHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 5, Telemetry: telemetry.New()})
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	code, body := get("/announce?swarm=sw&peer=a")
	if code != http.StatusOK {
		t.Fatalf("announce: %d %s", code, body)
	}
	var res AnnounceResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Swarm != "sw" || res.Peer != "a" || res.ID != 0 {
		t.Fatalf("announce result %+v", res)
	}

	code, body = get("/announce?swarm=sw&peer=b&event=started")
	if code != http.StatusOK {
		t.Fatalf("announce b: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Peers) != 1 || res.Peers[0] != "a" {
		t.Fatalf("b's handout %+v; want [a]", res.Peers)
	}

	if code, body = get("/announce?swarm=sw&peer=a&event=stopped"); code != http.StatusOK ||
		!strings.Contains(string(body), `"stopped":true`) {
		t.Fatalf("stop: %d %s", code, body)
	}
	if code, _ = get("/announce?swarm=sw"); code != http.StatusBadRequest {
		t.Fatalf("missing peer: %d", code)
	}
	if code, _ = get("/announce?swarm=sw&peer=x&event=paused"); code != http.StatusBadRequest {
		t.Fatalf("bad event: %d", code)
	}

	code, body = get("/scrape?swarm=sw")
	if code != http.StatusOK {
		t.Fatalf("scrape: %d", code)
	}
	var ent ScrapeEntry
	if err := json.Unmarshal(body, &ent); err != nil {
		t.Fatal(err)
	}
	if ent.Present != 1 || ent.TotalJoined != 2 || ent.Departed != 1 {
		t.Fatalf("scrape %+v", ent)
	}
	if code, _ = get("/scrape?swarm=ghost"); code != http.StatusNotFound {
		t.Fatalf("scrape unknown: %d", code)
	}
	if code, body = get("/scrape"); code != http.StatusOK || !strings.Contains(string(body), `"swarms"`) {
		t.Fatalf("scrape all: %d %s", code, body)
	}
	if code, body = get("/metrics"); code != http.StatusOK ||
		!strings.Contains(string(body), "trackerd_announces_total") {
		t.Fatalf("/metrics: %d %.200s", code, body)
	}
	if code, _ = get("/runs/99"); code != http.StatusNotFound {
		t.Fatalf("unknown run: %d", code)
	}
	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}

	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}
}

// TestLoadGen drives the generator at a live daemon and sanity-checks the
// report: all announces land, quantiles are ordered, throughput is counted.
func TestLoadGen(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 9, Telemetry: telemetry.New()})
	lg := LoadGen{
		BaseURL:     ts.URL,
		Swarm:       "lg",
		Peers:       40,
		Concurrency: 4,
		Total:       300,
		Churn:       10,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := lg.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("report has %d errors: %+v", rep.Errors, rep)
	}
	if rep.Announces != 300 {
		t.Fatalf("announces %d; want 300", rep.Announces)
	}
	if rep.PerSec <= 0 || rep.Elapsed <= 0 {
		t.Fatalf("throughput not measured: %+v", rep)
	}
	if rep.P50 > rep.P90 || rep.P90 > rep.P99 || rep.P99 > rep.Max {
		t.Fatalf("quantiles out of order: %+v", rep)
	}
	if !strings.Contains(rep.String(), "announces/sec") {
		t.Fatalf("report text: %q", rep.String())
	}
}

// TestLoadGenPacedDurationKeepsSamples pins that a paced, Duration-bounded
// replay reports the announces it completed: such a run ends with workers
// leaving from a pacing wait or a cancelled request, and those exits must
// still merge their latency samples.
func TestLoadGenPacedDurationKeepsSamples(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 9, Telemetry: telemetry.New()})
	lg := LoadGen{
		BaseURL:     ts.URL,
		Swarm:       "lg",
		Peers:       20,
		Concurrency: 2,
		Rate:        200,
		Duration:    300 * time.Millisecond,
	}
	rep, err := lg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Announces == 0 {
		t.Fatalf("paced duration-bounded run reported no announces: %+v", rep)
	}
	if limit := int(lg.Rate*rep.Elapsed.Seconds()) + lg.Concurrency + 1; rep.Announces > limit {
		t.Fatalf("announces %d exceed the offered load %d: %+v", rep.Announces, limit, rep)
	}
	if rep.PerSec <= 0 || rep.Max <= 0 {
		t.Fatalf("throughput or latency not measured: %+v", rep)
	}
	if rep.P50 > rep.P90 || rep.P90 > rep.P99 || rep.P99 > rep.Max {
		t.Fatalf("quantiles out of order: %+v", rep)
	}
}
