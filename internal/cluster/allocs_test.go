package cluster

import (
	"testing"

	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// The arena refactor's headline allocation guarantee (DESIGN.md §12): after
// warm-up, advancing a quantum costs zero heap allocations in the
// event-queue walk and in the partitioned walk, and the batched router's
// only per-quantum allocations are the unavoidable per-message guest
// buffers. One run's setup (nodes, arenas, queues) does allocate, so the
// steady-state rate is isolated by differencing two runs that are identical
// except for their length: setup cancels and the remainder is pure
// per-quantum cost.

// allocsForRun measures the average allocations of one full run of cfg
// under the given strategy and returns it together with the run's quantum
// count.
func allocsForRun(t *testing.T, st strategy, cfg Config) (allocs float64, quanta int) {
	t.Helper()
	run := func() {
		res, err := st.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		quanta = res.Stats.Quanta
	}
	return testing.AllocsPerRun(5, run), quanta
}

// steadyAllocsPerQuantum differences a short and a long run of the same
// geometry: setup cancels and the remainder is pure per-quantum cost.
func steadyAllocsPerQuantum(t *testing.T, label string, st strategy, short, long Config) float64 {
	t.Helper()
	aShort, qShort := allocsForRun(t, st, short)
	aLong, qLong := allocsForRun(t, st, long)
	if qLong <= qShort {
		t.Fatalf("long run (%d quanta) not longer than short run (%d quanta)", qLong, qShort)
	}
	perQuantum := (aLong - aShort) / float64(qLong-qShort)
	t.Logf("%s: short %v allocs / %d quanta, long %v allocs / %d quanta, steady state %.4f allocs/quantum",
		label, aShort, qShort, aLong, qLong, perQuantum)
	return perQuantum
}

// TestClassicWalkZeroAllocsPerQuantum pins the reference strategy's
// event-queue walk at zero steady-state allocations per quantum: a 10x
// longer silent run must allocate exactly as much as a short one.
func TestClassicWalkZeroAllocsPerQuantum(t *testing.T) {
	const q = 50 * simtime.Microsecond
	short := testConfig(4, workloads.Silent(1*simtime.Millisecond), fixed(q))
	long := testConfig(4, workloads.Silent(10*simtime.Millisecond), fixed(q))
	if perQuantum := steadyAllocsPerQuantum(t, "event-queue walk", reference, short, long); perQuantum != 0 {
		t.Errorf("event-queue walk steady state allocates: %.4f allocs/quantum (want exactly 0)", perQuantum)
	}
}

// TestGradedWalkZeroAllocsPerQuantum pins the production walk on the
// mixed rack+WAN geometry at Q=2µs — one tight rack walked through the
// event queue, four loose WAN singletons walked inline, every quantum
// partially engaged — at zero steady-state allocations per quantum.
func TestGradedWalkZeroAllocsPerQuantum(t *testing.T) {
	const q = 2 * simtime.Microsecond
	mk := func(d simtime.Duration) Config {
		cfg := testConfig(8, workloads.Silent(d), fixed(q))
		cfg.Net = mixedWANNet(8)
		return cfg
	}
	short, long := mk(1*simtime.Millisecond), mk(10*simtime.Millisecond)
	res, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FastPartialQuanta != res.Stats.Quanta {
		t.Fatalf("premise: every quantum should be partially engaged, got %+v", res.Stats)
	}
	if perQuantum := steadyAllocsPerQuantum(t, "graded walk", production, short, long); perQuantum != 0 {
		t.Errorf("graded walk steady state allocates: %.4f allocs/quantum (want exactly 0)", perQuantum)
	}
}

// TestBatchedRouterAllocsPerQuantum pins the fast path's batched router:
// per-quantum allocations must come only from the per-message guest buffers
// (payload copy plus block-amortized frame/message carves), never from the
// engine's routing structures. The workloads differ only in phase count, so
// the per-quantum difference is the cost of extra communicating quanta.
func TestBatchedRouterAllocsPerQuantum(t *testing.T) {
	// Q=1µs is below the Paper model's minimum latency: every quantum is
	// provably safe, walks every node loose and routes through routeBatch.
	const q = 1 * simtime.Microsecond
	mk := func(phases int) Config {
		return testConfig(4, workloads.Phases(phases, 150*simtime.Microsecond, 32<<10), fixed(q))
	}
	perQuantum := steadyAllocsPerQuantum(t, "batched router", production, mk(2), mk(8))
	// Six extra alltoall phases are 72 extra 8KB messages; each costs one
	// payload buffer plus 3/64ths of a block carve. Everything else — the
	// flight slab, the batch and delivery buffers, the event arena — must
	// be reused, so the steady state stays far below one alloc per quantum.
	if perQuantum >= 0.5 {
		t.Errorf("batched router steady state allocates %.4f allocs/quantum (want < 0.5: only per-message guest buffers)", perQuantum)
	}
}
