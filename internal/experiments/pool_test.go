package experiments

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Every index in [0, n) must be executed exactly once, for any worker count
// (including the GOMAXPROCS default) and n below, equal to and above it.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
		w := workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		for _, n := range []int{0, 1, w - 1, w, w + 1, 97} {
			if n < 0 {
				continue
			}
			counts := make([]atomic.Int32, n)
			forEach(workers, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: fn(%d) ran %d times, want 1", workers, n, i, got)
				}
			}
		}
	}
}

// At most workers calls (GOMAXPROCS for workers <= 0), and never more than
// n, may be in flight at once: the caller counts as one of the workers.
func TestForEachBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3} {
		for _, n := range []int{2, 40} {
			bound := workers
			if bound <= 0 {
				bound = runtime.GOMAXPROCS(0)
			}
			bound = min(bound, n)
			var inFlight, peak atomic.Int32
			forEach(workers, n, func(int) {
				cur := inFlight.Add(1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				runtime.Gosched()
				inFlight.Add(-1)
			})
			if got := peak.Load(); got > int32(bound) {
				t.Errorf("workers=%d n=%d: %d calls in flight, want at most %d", workers, n, got, bound)
			}
		}
	}
}

// A single worker runs inline on the calling goroutine in index order — the
// reference sequential schedule of -workers 1.
func TestForEachSingleWorkerRunsInlineInOrder(t *testing.T) {
	var order []int
	forEach(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("inline order %v, want 0..4 ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d calls, want 5", len(order))
	}
}

// runAll runs every job whatever fails, and returns the lowest-indexed
// error for every worker count.
func TestRunAllLowestIndexedError(t *testing.T) {
	errA, errB := errors.New("job 3"), errors.New("job 7")
	for _, workers := range []int{0, 1, 2, 3} {
		var ran atomic.Int32
		jobs := make([]job, 10)
		for i := range jobs {
			jobs[i] = func() error {
				ran.Add(1)
				switch i {
				case 3:
					return errA
				case 7:
					return errB
				}
				return nil
			}
		}
		if err := runAll(workers, jobs); err != errA {
			t.Errorf("workers=%d: runAll = %v, want %v", workers, err, errA)
		}
		if got := ran.Load(); got != int32(len(jobs)) {
			t.Errorf("workers=%d: %d of %d jobs ran", workers, got, len(jobs))
		}
	}
}

// TestFanOutReleasesGoroutines: neither runAll nor RunFleet may leave a
// goroutine behind once it returns.
func TestFanOutReleasesGoroutines(t *testing.T) {
	m := parseTiny(t)
	base := runtime.NumGoroutine()
	for _, workers := range []int{0, 2, 3} {
		jobs := make([]job, 9)
		for i := range jobs {
			jobs[i] = func() error { runtime.Gosched(); return nil }
		}
		if err := runAll(workers, jobs); err != nil {
			t.Fatal(err)
		}
		for _, o := range RunFleet(m, workers, nil) {
			if o.Err != nil {
				t.Fatalf("%s: %v", o.Name, o.Err)
			}
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Errorf("%d goroutines after runAll and RunFleet, %d before", n, base)
	}
}
