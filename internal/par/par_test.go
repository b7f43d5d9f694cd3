package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachWorkerEveryIndexOnce pins ForEachWorker's contract: every
// index in [0, n) runs exactly once, and every worker id lies in
// [0, Workers(n, workers)) — for fewer, equal and more tasks than workers.
func TestForEachWorkerEveryIndexOnce(t *testing.T) {
	const workers = 4
	for _, n := range []int{0, 1, 3, workers, 9, 100} {
		hits := make([]atomic.Int32, n)
		var badWorker atomic.Int32
		badWorker.Store(-1)
		limit := Workers(n, workers)
		ForEachWorker(n, workers, func(w, i int) {
			if w < 0 || w >= limit {
				badWorker.Store(int32(w))
			}
			hits[i].Add(1)
		})
		if w := badWorker.Load(); w >= 0 {
			t.Errorf("n=%d: worker id %d outside [0, %d)", n, w, limit)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("n=%d: index %d ran %d times, want 1", n, i, got)
			}
		}
	}
}

// TestForEachErrLowestIndex pins that ForEachErr reports the error of the
// lowest-indexed failing task — what a serial loop would report — however
// the failures interleave across workers.
func TestForEachErrLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := ForEachErr(50, workers, func(i int) error {
			if i%7 == 3 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3" {
			t.Errorf("workers=%d: err = %v, want task 3", workers, err)
		}
	}
	if err := ForEachErr(50, 4, func(int) error { return nil }); err != nil {
		t.Errorf("no failing task: err = %v", err)
	}
}

// TestForEachErrStopsAfterFailure pins that no task starts once a failure
// has been seen: with one worker the tasks run in index order, so nothing
// past the failing index may run.
func TestForEachErrStopsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForEachErr(100, 1, func(i int) error {
		ran.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := ran.Load(); got != 11 {
		t.Fatalf("%d tasks ran, want 11 (none after the failure)", got)
	}
}

// TestWorkersClamp pins Workers: a non-positive request means GOMAXPROCS,
// the count never exceeds the task count, and it is always at least 1.
func TestWorkersClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, workers, want int }{
		{100, 0, min(procs, 100)},
		{100, -3, min(procs, 100)},
		{5, 8, 5},
		{8, 8, 8},
		{9, 8, 8},
		{0, 4, 1},
		{0, 0, 1},
		{1, 1, 1},
	} {
		if got := Workers(c.n, c.workers); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}
