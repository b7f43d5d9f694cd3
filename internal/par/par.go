// Package par provides the bounded worker-pool primitive shared by every
// fan-out in the repository: cluster sweeps, Monte-Carlo sampling,
// experiment replicas, and CLI replica studies all hand indexed tasks to
// min(workers, n) goroutines. Centralizing the loop keeps the scheduling
// (and any future fixes to it) in one place.
//
// Determinism contract for callers: a task must derive its randomness from
// its own index (or from a sub-stream split off before the fan-out) and
// write only to its own index-addressed slot. Under that contract results
// are identical for every worker count and any scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"stratmatch/internal/telemetry"
)

// tel holds the process-wide telemetry recorder for the pool, stored
// atomically so fan-outs on other goroutines observe a SetTelemetry
// race-free. Nil (the default) records nothing.
var tel atomic.Pointer[telemetry.Recorder]

// SetTelemetry attaches a telemetry recorder to the worker pool: every task
// run by ForEach/ForEachWorker/ForEachErr is counted and timed as a
// "par_task" phase. Pass nil to detach. Safe to call concurrently with
// running fan-outs.
func SetTelemetry(r *telemetry.Recorder) { tel.Store(r) }

// ForEach runs fn(0) .. fn(n-1) across min(workers, n) goroutines and
// returns when every call has completed. workers <= 0 means GOMAXPROCS.
// Tasks are handed out in index order.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the worker id (0 .. min(workers, n)-1)
// passed alongside the task index, for callers that keep per-worker
// accumulators. The worker count actually used is Workers(n, workers).
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	r := tel.Load() // nil when telemetry is off; all hooks no-op
	workers = Workers(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			sp := r.StartPhase(telemetry.PhaseParTask)
			fn(0, i)
			r.EndPhase(telemetry.PhaseParTask, sp)
			r.Inc(telemetry.CtrParTasks)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sp := r.StartPhase(telemetry.PhaseParTask)
				fn(w, i)
				r.EndPhase(telemetry.PhaseParTask, sp)
				r.Inc(telemetry.CtrParTasks)
			}
		}(w)
	}
	wg.Wait()
}

// ForEachErr is ForEach for fallible tasks. Once any task fails, workers
// stop picking up new tasks (tasks already running finish), and the error
// of the lowest-indexed failing task is returned — the same error a serial
// loop would have reported.
func ForEachErr(n, workers int, fn func(i int) error) error {
	var (
		mu     sync.Mutex
		errIdx = n
		first  error
		failed atomic.Bool
	)
	ForEach(n, workers, func(i int) {
		if failed.Load() {
			return
		}
		if err := fn(i); err != nil {
			mu.Lock()
			if i < errIdx {
				errIdx, first = i, err
			}
			mu.Unlock()
			failed.Store(true)
		}
	})
	return first
}

// Workers returns the worker count ForEach would use for n tasks:
// min(workers, n), with workers <= 0 meaning GOMAXPROCS, and at least 1.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
