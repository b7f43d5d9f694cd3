package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stratmatch/internal/btsim"
	"stratmatch/internal/telemetry"
	"stratmatch/internal/trackerd"
)

// The tracker workload serves the trackerd HTTP handler on a loopback
// listener and drives it from this process with its own open-loop
// generator: nproc goroutines, one keep-alive connection each. Requests
// are timed from their due time, so a stall also delays the requests
// queued behind it; the generator spins the last millisecond before each
// due time so its own timer does not add to that (see waitUntil).
//
// Batches (the preload and run_s) call the handler in-process instead,
// from nproc goroutines with no sockets. A request costs about a quarter
// of its loopback round trip there, so a change in the daemon's own code
// moves run_s about four times as much as it would through loopback,
// whose kernel work the daemon does not control. Loopback stays on the
// latency path.

// handoutPolicy is the daemon's announce policy; responses are checked
// against it.
var handoutPolicy = btsim.HandoutPolicy{NeighborCount: 20, MaxNeighbors: 48}

// latencyLimit is the p99 (from due time) a ladder rate must meet to count
// as sustained.
const latencyLimit = 10 * time.Millisecond

const (
	opJoin = iota
	opReannounce
	opStop
	opScrape
)

var opNames = [...]string{"join", "reannounce", "stop", "scrape"}

type request struct {
	path  string
	op    uint8
	swarm string
	peer  string
}

// The announce-kind share of the mix is measured, not chosen: it is the
// tracker traffic of the churn workload's own swarm (churnSpec at full
// size, seeds 1-3, read from the btsim telemetry counters). Joins are
// btsim_joins_total; stops are btsim_departs_total (graceful departures:
// a crash-stop sends no stopped event); re-announces are the announces
// that reached the tracker (btsim_announces_total less
// btsim_announce_failures_total) less each join's own first announce.
// TestTrackerMixMatchesChurn derives them again.
const (
	joinShare       = 0.277
	reannounceShare = 0.422
	stopShare       = 1 - joinShare - reannounceShare
)

// scrapeShare and zipfExponent are assumptions: nothing measured in the
// repository or its references gives a tracker's share of scrapes or the
// popularity skew of its swarms.
const (
	scrapeShare  = 0.2
	zipfExponent = 1.1
)

// traffic generates the request stream from the seed: Zipf-popular swarms
// and a mix of joins, re-announces and stops (writes) beside scrapes
// (reads). The stream is fixed by the seed; which goroutine sends what is
// fixed by the request index.
type traffic struct {
	r      *rand.Rand
	zipf   *rand.Zipf
	swarms []string
	live   [][]int // live peer numbers per swarm, in generation order
	next   []int   // next fresh peer number per swarm
}

func newTraffic(seed uint64, swarms int) *traffic {
	r := rand.New(rand.NewSource(int64(seed)))
	t := &traffic{
		r:    r,
		zipf: rand.NewZipf(r, zipfExponent, 1, uint64(swarms-1)),
		live: make([][]int, swarms),
		next: make([]int, swarms),
	}
	for i := 0; i < swarms; i++ {
		t.swarms = append(t.swarms, fmt.Sprintf("swarm-%02d", i))
	}
	return t
}

func (t *traffic) announce(s, peer int, stop bool) request {
	name, key := t.swarms[s], "p"+strconv.Itoa(peer)
	op, path := uint8(opJoin), "/announce?swarm="+name+"&peer="+key
	if stop {
		op, path = opStop, path+"&event=stopped"
	}
	return request{path: path, op: op, swarm: name, peer: key}
}

// preload joins n peers, every swarm first, so each is known to scrape.
func (t *traffic) preload(n int) []request {
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		s := i
		if i >= len(t.swarms) {
			s = int(t.zipf.Uint64())
		}
		reqs = append(reqs, t.join(s))
	}
	return reqs
}

func (t *traffic) join(s int) request {
	peer := t.next[s]
	t.next[s]++
	t.live[s] = append(t.live[s], peer)
	return t.announce(s, peer, false)
}

// mix draws n requests: scrapeShare scrapes, and announces split into
// joins, re-announces and stops by the measured shares. A swarm with no
// live peer gets a join instead of a re-announce or stop.
func (t *traffic) mix(n int) []request {
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		s := int(t.zipf.Uint64())
		u := t.r.Float64()
		if u < scrapeShare {
			name := t.swarms[s]
			reqs = append(reqs, request{path: "/scrape?swarm=" + name, op: opScrape, swarm: name})
			continue
		}
		v := (u - scrapeShare) / (1 - scrapeShare)
		live := t.live[s]
		switch {
		case v < joinShare || len(live) == 0:
			reqs = append(reqs, t.join(s))
		case v < joinShare+reannounceShare:
			req := t.announce(s, live[t.r.Intn(len(live))], false)
			req.op = opReannounce
			reqs = append(reqs, req)
		default:
			i := t.r.Intn(len(live))
			peer := live[i]
			live[i] = live[len(live)-1]
			t.live[s] = live[:len(live)-1]
			reqs = append(reqs, t.announce(s, peer, true))
		}
	}
	return reqs
}

// daemon is one trackerd instance listening on loopback.
type daemon struct {
	srv  *http.Server
	h    http.Handler // what srv serves
	base string
	rec  *telemetry.Recorder
	done chan error
	// handler timing, per request index (traced daemons only)
	hStart, hEnd []atomic.Int64
}

// startDaemon builds the daemon and waits until it answers /healthz.
// Traced daemons record telemetry and time every request's handler.
func startDaemon(b *bench, traced bool, maxReqs int) (*daemon, error) {
	d := &daemon{done: make(chan error, 1)}
	cfg := trackerd.Config{
		Seed:          b.seed,
		Policy:        handoutPolicy,
		CheckpointDir: filepath.Join(b.out, "trackerd-checkpoints"),
	}
	if traced {
		d.rec = telemetry.New()
		cfg.Telemetry = d.rec
	}
	h := trackerd.NewServer(cfg).Handler()
	if traced {
		d.hStart = make([]atomic.Int64, maxReqs)
		d.hEnd = make([]atomic.Int64, maxReqs)
		inner, t0 := h, b.spans.t0
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Since(t0)
			inner.ServeHTTP(w, r)
			end := time.Since(t0)
			if i, err := strconv.Atoi(r.Header.Get("X-Bench-Req")); err == nil && i >= 0 && i < len(d.hStart) {
				d.hStart[i].Store(int64(start))
				d.hEnd[i].Store(int64(end))
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.h = h
	d.srv = &http.Server{Handler: h}
	d.base = "http://" + ln.Addr().String()
	go func() { d.done <- d.srv.Serve(ln) }()
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, nil
}

// stop shuts the daemon down and waits for its serve loop to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.done
}

// sample is one request's timing, in ns since the drive's start.
type sample struct {
	due, send, done int64
	prevDone        int64 // when the sending goroutine's previous request finished
	ok              bool
}

// driven is one drive's samples, start time and wall time.
type driven struct {
	ss      []sample
	start   time.Time
	elapsed time.Duration
}

// respWriter is a reusable in-process response.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

// serve runs reqs through the daemon's handler in-process, request i on
// goroutine i mod nproc, and returns the wall time. Each goroutine checks
// every response as soon as the handler returns and keeps only whether it
// was valid, so no response outlives its request.
func (d *daemon) serve(b *bench, reqs []request) time.Duration {
	ok := make([]bool, len(reqs))
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	for g := 0; g < b.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := &respWriter{hdr: http.Header{}}
			for i := g; i < len(reqs); i += b.workers {
				w.reset()
				r, err := http.NewRequest(http.MethodGet, "http://tracker"+reqs[i].path, nil)
				if err != nil {
					continue
				}
				d.h.ServeHTTP(w, r)
				ok[i] = w.code == http.StatusOK && validResponse(reqs[i], w.body.Bytes())
			}
		}(g)
	}
	wg.Wait()
	took := time.Since(start)
	for i := range ok {
		b.check(ok[i], "tracker: in-process %s %s: bad status or malformed response", opNames[reqs[i].op], reqs[i].path)
	}
	return took
}

// drive sends reqs to the daemon over loopback, open-loop at rate
// requests/s: request i is due i/rate seconds after the start and goes to
// goroutine i mod nproc. Failed or malformed responses count against the
// bench.
func drive(b *bench, d *daemon, reqs []request, rate float64) driven {
	out := make([]sample, len(reqs))
	workers := b.workers
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			var prevDone int64
			for i := g; i < len(reqs); i += workers {
				s := &out[i]
				s.due = int64(float64(i) / rate * 1e9)
				waitUntil(start, time.Duration(s.due))
				s.prevDone = prevDone
				s.send = int64(time.Since(start))
				body, status, err := get(client, d.base+reqs[i].path, i, d.hStart != nil)
				s.done = int64(time.Since(start))
				prevDone = s.done
				s.ok = err == nil && status == http.StatusOK && validResponse(reqs[i], body)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := range out {
		b.check(out[i].ok, "tracker: %s %s failed or returned a malformed response", opNames[reqs[i].op], reqs[i].path)
	}
	return driven{ss: out, start: start, elapsed: elapsed}
}

// waitUntil returns once due has passed since start. Go's sleep can wake
// up to about a millisecond late, which would count as latency from the
// due time, so it sleeps until a millisecond before and spins the rest.
// The spin holds a CPU for at most that millisecond; loadgen lateness is
// reported beside the latency figures.
func waitUntil(start time.Time, due time.Duration) {
	if wait := due - time.Since(start); wait > time.Millisecond {
		time.Sleep(wait - time.Millisecond)
	}
	for time.Since(start) < due {
	}
}

func get(client *http.Client, url string, idx int, tag bool) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	if tag {
		req.Header.Set("X-Bench-Req", strconv.Itoa(idx))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// validResponse checks a response against the request and the handout
// policy: a handout adds at most NeighborCount peers, never lists more
// than MaxNeighbors, never the announcer itself, never one peer twice.
func validResponse(req request, body []byte) bool {
	switch req.op {
	case opJoin, opReannounce:
		var r struct {
			Swarm string   `json:"swarm"`
			Peer  string   `json:"peer"`
			Added int      `json:"added"`
			Peers []string `json:"peers"`
		}
		if json.Unmarshal(body, &r) != nil || r.Swarm != req.swarm || r.Peer != req.peer {
			return false
		}
		if r.Added < 0 || r.Added > handoutPolicy.NeighborCount || r.Added > len(r.Peers) || len(r.Peers) > handoutPolicy.MaxNeighbors {
			return false
		}
		for i, p := range r.Peers {
			if p == req.peer {
				return false
			}
			for _, q := range r.Peers[:i] {
				if p == q {
					return false
				}
			}
		}
		return true
	case opStop:
		var r struct {
			Swarm string `json:"swarm"`
			Peer  string `json:"peer"`
		}
		return json.Unmarshal(body, &r) == nil && r.Swarm == req.swarm && r.Peer == req.peer
	default:
		var r struct {
			Swarm       string `json:"swarm"`
			Present     int    `json:"present"`
			TotalJoined int    `json:"total_joined"`
		}
		return json.Unmarshal(body, &r) == nil && r.Swarm == req.swarm && r.Present >= 0 && r.TotalJoined >= r.Present
	}
}

// latencies returns each sample's due-to-done time in ms.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.done-s.due) / 1e6
	}
	return out
}

// lateness returns how late the generator sent each request, in ms: send
// time less the later of its due time and the end of the same goroutine's
// previous request. It is the generator's own delay, not the daemon's.
func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.send-max(s.due, s.prevDone)) / 1e6
	}
	return out
}

// rung is one open-loop rate's outcome.
type rung struct {
	Offered  float64 `json:"offered_per_s"`
	Achieved float64 `json:"achieved_per_s"`
	P50      float64 `json:"p50_ms"`
	P90      float64 `json:"p90_ms"`
	P99      float64 `json:"p99_ms"`
	LateP50  float64 `json:"loadgen_late_p50_ms"`
	LateP99  float64 `json:"loadgen_late_p99_ms"`
	Samples  int     `json:"samples"`
	Held     bool    `json:"held"`
}

func measureRung(rate float64, dr driven) rung {
	lat, late := latencies(dr.ss), lateness(dr.ss)
	r := rung{
		Offered:  rate,
		Achieved: float64(len(dr.ss)) / dr.elapsed.Seconds(),
		P50:      median(lat),
		P90:      quantile(lat, 0.90),
		P99:      quantile(lat, 0.99),
		LateP50:  median(late),
		LateP99:  quantile(late, 0.99),
		Samples:  len(dr.ss),
	}
	r.Held = r.P99 <= ms(latencyLimit) && r.Achieved >= 0.95*rate
	return r
}

// trackerSetup starts a daemon and preloads its swarms: what precedes the
// first measured request.
func trackerSetup(b *bench, traced bool, maxReqs int) (*daemon, *traffic, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	d, err := startDaemon(b, traced, maxReqs)
	if err != nil {
		return nil, nil, 0, err
	}
	t := newTraffic(b.seed, b.size.trackerSwarms)
	d.serve(b, t.preload(b.size.trackerPreload))
	took := time.Since(start)
	b.spans.add(0, "trackerd.setup", start, start.Add(took), map[string]float64{"traced": boolf(traced)})
	return d, t, took, nil
}

func boolf(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// setupOnce builds, preloads and stops one untraced daemon, for set-up
// time only.
func setupOnce(b *bench) (time.Duration, error) {
	d, _, took, err := trackerSetup(b, false, 0)
	if err != nil {
		return 0, err
	}
	d.stop()
	return took, nil
}

func runTracker(b *bench) error {
	sz := b.size
	d, t, took, err := trackerSetup(b, false, 0)
	if err != nil {
		return err
	}
	defer d.stop()
	if b.trace {
		return traceTracker(b, d, t)
	}
	setups := []float64{took.Seconds()}
	// The window is split into rounds. Each round runs set-up repetitions,
	// one reference-rate window (latency), one in-process batch (run_s)
	// and one rate of the ladder, so a disturbance lasting a few seconds
	// touches one sample of each median, not all of them. The gated tail
	// is p90: on a virtual machine whose vCPUs are descheduled for
	// milliseconds at a time, p99 moves several-fold between identical
	// runs. p99 is reported beside it.
	refN := int(sz.trackerRefRate * b.seconds.Seconds() * sz.trackerRefShare / float64(sz.trackerRounds))
	rungSeconds := b.seconds.Seconds() * sz.trackerLadderShare / float64(len(sz.trackerLadder))
	var windows, ladder []rung
	var p50s, p90s, p99s, lateP50s, lateP99s, batches []float64
	maxRate := 0.0
	for k := 0; k < sz.trackerRounds; k++ {
		for i := 0; i < sz.setupPerPass; i++ {
			took, err := setupOnce(b)
			if err != nil {
				return err
			}
			setups = append(setups, took.Seconds())
		}
		w := measureRung(sz.trackerRefRate, drive(b, d, t.mix(refN), sz.trackerRefRate))
		windows = append(windows, w)
		p50s = append(p50s, w.P50)
		p90s = append(p90s, w.P90)
		p99s = append(p99s, w.P99)
		lateP50s = append(lateP50s, w.LateP50)
		lateP99s = append(lateP99s, w.LateP99)
		batches = append(batches, d.serve(b, t.mix(sz.trackerBatch)).Seconds())
		if k < len(sz.trackerLadder) {
			rate := sz.trackerLadder[k]
			r := measureRung(rate, drive(b, d, t.mix(int(rate*rungSeconds)), rate))
			ladder = append(ladder, r)
			if r.Held && rate > maxRate {
				maxRate = rate
			}
		}
	}

	b.set("setup_s", median(setups))
	b.set("run_s", median(batches))
	b.set("step_p50_ms", median(p50s))
	b.set("step_tail_ms", median(p90s))
	b.set("peak_rss_mb", peakRSSMB())
	b.samples("setup_s", len(setups))
	b.samples("run_s", len(batches))
	b.samples("step_p50_ms", refN*len(windows))
	b.samples("step_tail_ms", refN*len(windows))
	b.report["step"] = fmt.Sprintf("one request at %.0f/s offered, from its due time; percentiles per %d-request window, median over %d windows",
		sz.trackerRefRate, refN, len(windows))
	b.report["step_tail_quantile"] = 0.90
	b.report["announce_p99_ms"] = map[string]any{"value": median(p99s), "unit": "ms"}
	b.report["loadgen_late_ms"] = map[string]any{"p50": median(lateP50s), "p99": median(lateP99s), "unit": "ms"}
	b.report["run"] = fmt.Sprintf("%d requests through the handler in-process on %d goroutines, each response checked as it returns", sz.trackerBatch, b.workers)
	b.report["setup_s"] = setups
	b.report["batch_s"] = batches
	b.report["reference_windows"] = windows
	b.report["ladder"] = ladder
	b.report["max_announce_rate"] = map[string]any{"value": maxRate, "unit": "1/s", "p99_limit_ms": ms(latencyLimit)}
	return nil
}

// traceTracker measures an in-process batch untraced and traced (for the
// overhead ratio), then the reference rate on a traced daemon whose
// handler is timed per request.
func traceTracker(b *bench, plain *daemon, t *traffic) error {
	sz := b.size
	refN := int(sz.trackerRefRate * b.seconds.Seconds() * sz.trackerRefShare)
	traced, tt, _, err := trackerSetup(b, true, refN)
	if err != nil {
		return err
	}
	defer traced.stop()
	// Untraced batches before and after the traced one, so the overhead
	// base is not biased by order; both daemons start from the same
	// preload and see the same request stream.
	base := plain.serve(b, t.mix(sz.trackerBatch))
	start := time.Now()
	tracedBatch := traced.serve(b, tt.mix(sz.trackerBatch))
	b.spans.add(0, "trackerd.batch", start, start.Add(tracedBatch), map[string]float64{"requests": float64(sz.trackerBatch)})
	base = (base + plain.serve(b, t.mix(sz.trackerBatch))) / 2

	before := handoutTotals(traced.rec)
	reqs := tt.mix(refN)
	dr := drive(b, traced, reqs, sz.trackerRefRate)
	after := handoutTotals(traced.rec)
	recordRequests(b, traced, reqs, dr, "trackerd.reference")

	var handler, overhead, wait []float64
	for i, s := range dr.ss {
		h := time.Duration(traced.hEnd[i].Load() - traced.hStart[i].Load())
		handler = append(handler, us(h))
		overhead = append(overhead, float64(s.done-s.send)/1e3-us(h))
		wait = append(wait, float64(s.send-s.due)/1e6)
	}
	late := lateness(dr.ss)
	b.set("trackerd.handler_p50_us", median(handler))
	b.set("trackerd.handler_p99_us", quantile(handler, 0.99))
	b.set("trackerd.handout_us", ratio(float64(after.sumNs-before.sumNs)/1e3, float64(after.count-before.count)))
	b.set("trackerd.client_overhead_us", median(overhead))
	b.set("trackerd.queue_wait_ms", quantile(wait, 0.99))
	b.set("loadgen.late_p99_ms", quantile(late, 0.99))
	b.set("trace_overhead_ratio", ratio(tracedBatch.Seconds(), base.Seconds()))
	b.samples("trackerd.handler_p99_us", len(handler))
	b.report["untraced_batch_s"] = base.Seconds()
	b.report["traced_batch_s"] = tracedBatch.Seconds()
	b.report["handouts"] = after.count
	return nil
}

type phaseTotal struct{ count, sumNs uint64 }

func handoutTotals(rec *telemetry.Recorder) phaseTotal {
	for _, ph := range rec.Snapshot().Phases {
		if ph.Name == "handout" {
			return phaseTotal{ph.Count, ph.SumNs}
		}
	}
	return phaseTotal{}
}

// recordRequests adds one span per request, with its handler span as a
// child, under one span for the whole drive. Spans of one request share
// its index as the "req" attribute.
func recordRequests(b *bench, d *daemon, reqs []request, dr driven, name string) {
	if b.spans == nil {
		return
	}
	at := func(ns int64) time.Time { return dr.start.Add(time.Duration(ns)) }
	parent := b.spans.add(0, name, dr.start, dr.start.Add(dr.elapsed), map[string]float64{"requests": float64(len(reqs))})
	t0 := b.spans.t0
	for i, s := range dr.ss {
		idx := float64(i)
		id := b.spans.add(parent, "trackerd.request", at(s.send), at(s.done), map[string]float64{
			"req": idx, "op": float64(reqs[i].op), "due_ns": float64(s.due),
		})
		hs, he := d.hStart[i].Load(), d.hEnd[i].Load()
		b.spans.add(id, "trackerd.handler", t0.Add(time.Duration(hs)), t0.Add(time.Duration(he)), map[string]float64{"req": idx})
	}
}
