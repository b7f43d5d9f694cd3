package trackerd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadGen replays announce traffic against a live daemon: Concurrency
// workers issue announces for Peers distinct peer keys round-robin, paced
// to an offered Rate (announces/sec; 0 = as fast as the daemon answers),
// until Total announces have been sent or Duration has elapsed. Every
// N-th announce per key cycle is an event=stopped departure when Churn is
// set, so sustained runs exercise the register/depart path too.
type LoadGen struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Swarm is the swarm name announced into.
	Swarm string
	// Peers is the distinct peer-key population cycled through (min 1).
	Peers int
	// Rate is the offered announce rate per second across all workers
	// (0: unpaced — offered load is whatever the daemon sustains).
	Rate float64
	// Concurrency is the number of in-flight request workers (min 1).
	Concurrency int
	// Total caps the announces sent (0: bounded by Duration only).
	Total int
	// Duration caps the replay wall time (0: bounded by Total only).
	// At least one of Total and Duration must be set.
	Duration time.Duration
	// Churn, when k > 0, turns every k-th announce into an event=stopped
	// departure for its key, so the registry's depart/re-register path is
	// on the measured load too.
	Churn int
	// Client is the HTTP client (nil: a default with keep-alives).
	Client *http.Client
}

// Report is a completed replay's measurement: achieved throughput and
// announce latency quantiles over every completed request. In a paced run
// (Rate > 0) an announce's latency runs from its due time, start + i/Rate,
// not from when a worker got around to sending it, so a generator that
// falls behind reports the queueing delay instead of hiding it
// (coordinated omission); unpaced runs measure from the send.
type Report struct {
	Announces int           `json:"announces"`
	Errors    int           `json:"errors"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	PerSec    float64       `json:"announces_per_sec"`
	P50       time.Duration `json:"p50_ns"`
	P90       time.Duration `json:"p90_ns"`
	P99       time.Duration `json:"p99_ns"`
	Max       time.Duration `json:"max_ns"`
}

// String renders the report as the loadgen subcommand's summary block.
func (r Report) String() string {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return fmt.Sprintf(
		"announces:      %d (%d errors)\nelapsed:        %.2fs\nannounces/sec:  %.1f\nlatency ms:     p50 %.3f  p90 %.3f  p99 %.3f  max %.3f",
		r.Announces, r.Errors, r.Elapsed.Seconds(), r.PerSec,
		ms(r.P50), ms(r.P90), ms(r.P99), ms(r.Max))
}

// quantile returns the q-quantile (0..1) of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Run executes the replay. The context cancels it early; the report covers
// whatever completed.
func (lg LoadGen) Run(ctx context.Context) (Report, error) {
	if lg.BaseURL == "" {
		return Report{}, fmt.Errorf("loadgen: no daemon URL")
	}
	if lg.Total <= 0 && lg.Duration <= 0 {
		return Report{}, fmt.Errorf("loadgen: need a total announce count or a duration")
	}
	peers := lg.Peers
	if peers < 1 {
		peers = 1
	}
	workers := lg.Concurrency
	if workers < 1 {
		workers = 1
	}
	swarm := lg.Swarm
	if swarm == "" {
		swarm = "loadgen"
	}
	client := lg.Client
	if client == nil {
		client = &http.Client{}
	}
	if lg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lg.Duration)
		defer cancel()
	}

	announceURL := func(i int) string {
		key := fmt.Sprintf("lg-%d", i%peers)
		u := lg.BaseURL + "/announce?swarm=" + url.QueryEscape(swarm) + "&peer=" + url.QueryEscape(key)
		if lg.Churn > 0 && i > 0 && i%lg.Churn == 0 {
			u += "&event=stopped"
		}
		return u
	}

	var (
		seq       atomic.Int64
		errs      atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		wg        sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, 1024)
			// Merge on every exit path: a Duration-bounded run ends with
			// workers returning from a pacing wait or a cancelled request,
			// and their completed samples still count.
			defer func() {
				mu.Lock()
				latencies = append(latencies, local...)
				mu.Unlock()
			}()
			for {
				i := int(seq.Add(1)) - 1
				if lg.Total > 0 && i >= lg.Total {
					break
				}
				if ctx.Err() != nil {
					break
				}
				// Open-loop pacing: announce i is due at start + i/Rate,
				// independent of how long earlier requests took, so the
				// offered load stays fixed while latency varies.
				var due time.Time
				if lg.Rate > 0 {
					due = start.Add(time.Duration(float64(i) / lg.Rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, announceURL(i), nil)
				if err != nil {
					errs.Add(1)
					continue
				}
				t0 := due
				if lg.Rate <= 0 {
					t0 = time.Now()
				}
				resp, err := client.Do(req)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					errs.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
					continue
				}
				local = append(local, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	rep := Report{
		Announces: len(latencies),
		Errors:    int(errs.Load()),
		Elapsed:   elapsed,
		P50:       quantile(latencies, 0.50),
		P90:       quantile(latencies, 0.90),
		P99:       quantile(latencies, 0.99),
	}
	if len(latencies) > 0 {
		rep.Max = latencies[len(latencies)-1]
	}
	if elapsed > 0 {
		rep.PerSec = float64(rep.Announces) / elapsed.Seconds()
	}
	return rep, nil
}
