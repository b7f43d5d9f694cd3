package par

import "sync"

// Pool is a persistent worker pool: a fixed set of goroutines that sleep
// between parallel regions instead of being respawned per call. ForEach
// pays one goroutine spawn per worker per call, which is invisible under
// experiment fan-outs but shows up when a parallel region runs every
// simulation round (the sharded swarm stepper). A Pool amortises the
// spawns to construction time; Run is two channel operations and a
// WaitGroup per region and allocates nothing.
//
// A Pool imposes no work-distribution policy: Run hands every worker the
// same function and its worker index, and callers slice the work (shard
// handout counters) themselves.
type Pool struct {
	workers int
	fn      func(w int)
	start   []chan struct{}
	wg      sync.WaitGroup
	done    chan struct{}
	closed  sync.Once
}

// NewPool starts a pool of `workers` persistent goroutines (minimum 1).
// The pool holds OS resources (parked goroutines) until Close.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		start:   make([]chan struct{}, workers),
		done:    make(chan struct{}),
	}
	for w := range p.start {
		p.start[w] = make(chan struct{}, 1)
		go p.loop(w)
	}
	return p
}

func (p *Pool) loop(w int) {
	for {
		select {
		case <-p.done:
			return
		case <-p.start[w]:
		}
		p.fn(w)
		p.wg.Done()
	}
}

// Run executes fn(w) on every worker w in [0, Workers()) concurrently and
// returns when all have finished. The assignment of p.fn happens before the
// start-channel sends and the workers' completions happen before wg.Wait
// returns, so fn and anything it closes over are properly synchronized.
// Run must not be called concurrently with itself or after Close.
func (p *Pool) Run(fn func(w int)) {
	p.fn = fn
	p.wg.Add(p.workers)
	for _, c := range p.start {
		c <- struct{}{}
	}
	p.wg.Wait()
	p.fn = nil
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close releases the pool's goroutines. Idempotent; Run must not be
// in flight or called afterwards.
func (p *Pool) Close() {
	p.closed.Do(func() { close(p.done) })
}
