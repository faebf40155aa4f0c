// Benchmark-tolerance gate: re-run the headline benchmarks whose trajectory
// the BENCH_*.json files record and fail on large regressions. The gate
// compares quanta/s against the "after" column of the committed A/B pairs,
// with a deliberately generous tolerance: the measurement hosts are shared
// and noisy (BENCH_PR8.json records >2x run-to-run spread on one of them),
// so this catches "accidentally made the engine 3x slower", not 10% drifts.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"clustersim/internal/cluster"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// benchFile is the subset of the BENCH_*.json schema the gate reads; the
// prose fields (notes, speedups, allocation counts) are ignored.
type benchFile struct {
	PR        int `json:"pr"`
	Scenarios map[string]struct {
		Pairs [][2]float64 `json:"pairs_base_vs_new_quanta_per_s"`
	} `json:"scenarios"`
}

// headlineBenches maps trajectory scenario keys onto in-process
// re-measurements replicating the geometry of the go test benchmarks they
// were recorded from (fastpath_bench_test.go, parallel_bench_test.go).
// Returns total quanta simulated in one measurement unit.
var headlineBenches = map[string]func() (int, error){
	// BenchmarkGroundTruthQuanta/reference (recorded as workers=0): 4
	// nodes, Phases(3, 150µs, 32KB), fixed Q=1µs, every quantum walked
	// through the event queue.
	"ground_truth_classic_walk_workers0": func() (int, error) { return groundTruthOnce(cluster.RunReference) },
	// BenchmarkGroundTruthQuanta/production (recorded as workers=1): same
	// geometry on the production walk, every node walked inline.
	"ground_truth_fast_path_workers1": func() (int, error) { return groundTruthOnce(cluster.Run) },
	// BenchmarkParallelBarrier: 8-node real-goroutine runner,
	// Phases(6, 200µs, 16KB), fixed Q=20µs.
	"parallel_barrier": parallelBarrierOnce,
}

func groundTruthOnce(run func(cluster.Config) (*cluster.Result, error)) (int, error) {
	w := workloads.Phases(3, 150*simtime.Microsecond, 32<<10)
	res, err := run(cluster.Config{
		Nodes:    4,
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Host:     host.DefaultParams(),
		Policy:   func() quantum.Policy { return quantum.Fixed{Q: simtime.Microsecond} },
		Program:  w.New,
		MaxGuest: simtime.Guest(100 * simtime.Second),
	})
	if err != nil {
		return 0, err
	}
	return res.Stats.Quanta, nil
}

func parallelBarrierOnce() (int, error) {
	w := workloads.Phases(6, 200*simtime.Microsecond, 16<<10)
	res, err := cluster.RunParallel(cluster.ParallelConfig{
		Nodes:    8,
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Policy:   func() quantum.Policy { return quantum.Fixed{Q: 20 * simtime.Microsecond} },
		Program:  w.New,
		MaxGuest: simtime.Guest(simtime.Second),
	})
	if err != nil {
		return 0, err
	}
	return res.Stats.Quanta, nil
}

// measure runs bench repeatedly for at least minTime and returns quanta/s.
func measure(bench func() (int, error), minTime time.Duration) (float64, error) {
	var quanta int
	start := time.Now()
	for time.Since(start) < minTime {
		q, err := bench()
		if err != nil {
			return 0, err
		}
		quanta += q
	}
	return float64(quanta) / time.Since(start).Seconds(), nil
}

// runBenchGate loads the trajectory file, re-measures every headline
// benchmark it records, and fails when any falls below
// baseline × (1 - tolerance). The baseline is the mean of the trajectory's
// "after" column; the measurement is the best of reps repetitions (best-of
// discards scheduler noise, which only ever slows a run down).
func runBenchGate(path string, tolerance float64, reps int) error {
	if tolerance < 0 || tolerance >= 1 {
		return fmt.Errorf("-bench-tolerance wants a fraction in [0, 1), got %v", tolerance)
	}
	if reps < 1 {
		reps = 1
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("bench trajectory %s: %v", path, err)
	}

	names := make([]string, 0, len(bf.Scenarios))
	//simlint:maporder names are collected then sorted before use
	for name := range bf.Scenarios {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	matched := 0
	for _, name := range names {
		bench, ok := headlineBenches[name]
		if !ok {
			fmt.Printf("bench %-36s skipped (no in-process replication)\n", name)
			continue
		}
		pairs := bf.Scenarios[name].Pairs
		if len(pairs) == 0 {
			fmt.Printf("bench %-36s skipped (no pairs recorded)\n", name)
			continue
		}
		matched++
		var baseline float64
		for _, p := range pairs {
			baseline += p[1]
		}
		baseline /= float64(len(pairs))

		best := 0.0
		for r := 0; r < reps; r++ {
			got, err := measure(bench, 300*time.Millisecond)
			if err != nil {
				return fmt.Errorf("bench %s: %v", name, err)
			}
			if got > best {
				best = got
			}
		}
		floor := baseline * (1 - tolerance)
		status := "ok"
		if best < floor {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f quanta/s < floor %.0f (baseline %.0f, tolerance %.0f%%)",
				name, best, floor, baseline, tolerance*100))
		}
		fmt.Printf("bench %-36s %8.0f quanta/s  baseline %8.0f  ratio %.2f  %s\n",
			name, best, baseline, best/baseline, status)
	}
	if matched == 0 {
		return fmt.Errorf("bench trajectory %s: no replicable headline scenarios found", path)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "simfleet: bench regression:", f)
		}
		return fmt.Errorf("bench: %d of %d headline benchmarks regressed beyond tolerance", len(failures), matched)
	}
	fmt.Printf("bench ok: %d headline benchmarks within %.0f%% of PR %d trajectory\n", matched, tolerance*100, bf.PR)
	return nil
}
