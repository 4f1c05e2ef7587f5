package experiments

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// DefaultJobs returns the fan-out width used when no explicit -jobs value is
// given: the LIBRA_JOBS environment variable when it holds a positive
// integer, otherwise runtime.NumCPU().
func DefaultJobs() int {
	if s := os.Getenv("LIBRA_JOBS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// DefaultSimWorkers returns the intra-frame worker count used when no
// explicit -sim-workers value is given: the LIBRA_SIM_WORKERS environment
// variable when it holds a positive integer, otherwise 1, the serial
// engine. The drivers' -jobs fan-out already saturates the host across
// simulations, and there a render-ahead helper per simulation costs time
// rather than saving it: `suite -suite mem -jobs 2` on two CPUs ran a
// median 5% slower with one, slower in 4 of 5 alternating pairs. A single
// simulation on an otherwise idle host is where a helper pays
// (-sim-workers 2).
func DefaultSimWorkers() int {
	if s := os.Getenv("LIBRA_SIM_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// DefaultRenderElim returns the Rendering Elimination default used when no
// explicit -render-elim value is given: true exactly when the
// LIBRA_RENDER_ELIM environment variable holds a true-ish boolean
// ("1", "t", "true", ...).
func DefaultRenderElim() bool {
	v, err := strconv.ParseBool(os.Getenv("LIBRA_RENDER_ELIM"))
	return err == nil && v
}

// Pool fans indexed jobs out to a bounded set of workers. Workers pull the
// next index from a shared atomic counter, so load balances dynamically even
// when per-job runtimes are heavily skewed (per-game simulation times vary by
// an order of magnitude across the suite). Determinism is the caller's job:
// each fn(i) must write only into its own pre-indexed slot, never append in
// arrival order.
type Pool struct {
	jobs int
}

// NewPool builds a pool with the given width; jobs <= 0 selects DefaultJobs.
func NewPool(jobs int) *Pool {
	if jobs <= 0 {
		jobs = DefaultJobs()
	}
	return &Pool{jobs: jobs}
}

// Jobs returns the pool's worker bound.
func (p *Pool) Jobs() int {
	if p == nil || p.jobs <= 0 {
		return 1
	}
	return p.jobs
}

// ForEach runs fn(i) for every i in [0, n) on at most Jobs workers and
// returns once all have completed. With one worker it degenerates to a plain
// loop on the calling goroutine. If any fn panics, the first panic value is
// re-raised on the calling goroutine after the remaining workers drain.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := p.Jobs()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any // first panic value, re-raised by the caller
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
