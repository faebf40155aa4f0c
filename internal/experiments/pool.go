package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// job is one independent deterministic simulation of an experiment grid.
// Each job writes its result into a caller-owned slot keyed by the job's
// index, so the assembled output order never depends on scheduling.
type job func() error

// runAll executes every job through forEach. workers <= 0 uses GOMAXPROCS —
// each simulation is single-threaded, so one worker per host core saturates
// the machine.
//
// Error reporting is deterministic regardless of completion order: every
// job runs, and the error of the lowest-indexed failing job is returned.
func runAll(workers int, jobs []job) error {
	errs := make([]error, len(jobs))
	forEach(workers, len(jobs), func(i int) { errs[i] = jobs[i]() })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach calls fn(i) exactly once for every i in [0, n) on at most workers
// goroutines, the caller included (workers <= 0 means GOMAXPROCS). The
// goroutines claim indices from one shared counter, so uneven per-index cost
// balances itself; with a single worker the calls run inline in index order.
// forEach returns after every call has finished, and no goroutine it started
// outlives it. Callers get determinism by writing per-index slots, never by
// relying on completion order.
func forEach(workers, n int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}
