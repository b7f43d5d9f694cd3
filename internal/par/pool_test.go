package par

import (
	"sync/atomic"
	"testing"
)

// TestPoolRunEveryWorker pins Run's contract: fn(w) runs exactly once per
// worker w in [0, workers), and Run returns only after all have finished.
func TestPoolRunEveryWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 8} {
		p := NewPool(workers)
		hits := make([]atomic.Int32, workers)
		p.Run(func(w int) { hits[w].Add(1) })
		for w := range hits {
			if got := hits[w].Load(); got != 1 {
				t.Errorf("workers=%d: worker %d ran %d times, want 1", workers, w, got)
			}
		}
		p.Close()
	}
}

// TestPoolReuse drives many Run regions through one pool — the amortized
// use the swarm stepper depends on — and
// checks every region completes fully before the next begins.
func TestPoolReuse(t *testing.T) {
	const workers, regions = 4, 200
	p := NewPool(workers)
	defer p.Close()
	var total atomic.Int64
	for r := 0; r < regions; r++ {
		before := total.Load()
		p.Run(func(w int) { total.Add(1) })
		if got := total.Load(); got != before+workers {
			t.Fatalf("region %d: total = %d, want %d", r, got, before+workers)
		}
	}
}

// TestPoolRunZeroAlloc pins the reason the pool exists: a parallel region
// must not allocate, or per-round regions (the sharded stepper) would leak
// garbage into every simulation round.
func TestPoolRunZeroAlloc(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	fn := func(w int) { sink.Add(int64(w)) }
	if allocs := testing.AllocsPerRun(100, func() { p.Run(fn) }); allocs != 0 {
		t.Fatalf("Pool.Run allocates %.1f objects per region, want 0", allocs)
	}
}

// TestPoolCloseIdempotent: Close releases the workers and is safe to call
// repeatedly (the swarm calls it from both SetStepWorkers and Close).
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(3)
	p.Run(func(int) {})
	p.Close()
	p.Close()
}

// TestPoolMinWorkers: worker counts below 1 clamp to a single worker.
func TestPoolMinWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	var n atomic.Int32
	p.Run(func(w int) {
		if w != 0 {
			t.Errorf("worker id = %d, want 0", w)
		}
		n.Add(1)
	})
	if n.Load() != 1 {
		t.Fatalf("clamped pool ran %d workers, want 1", n.Load())
	}
}
