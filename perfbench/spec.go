package main

import (
	"encoding/json"
	"os"
	"runtime"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// moves is the end-to-end metric and workload a change in this layer
	// metric should move.
	moves string
}

// endToEnd are the metrics of an untraced run. Bound is the share of the
// parent's median by which a metric may worsen before a change counts as a
// regression. The reference host, a 2-vCPU VM, runs 10-50% slower when its
// neighbours are busy; the timings are taken so that this cancels (see
// untraced), but how well the calibration tracks the host on other
// neighbours' loads is not known, so the timings keep wide bounds. Set-up,
// a few milliseconds of process start, is not calibrated and gets the
// widest.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "quanta_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "call_p50_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "call_tail_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// cpuLayers are the layers CPU samples are charged to (see layerOf):
// "other" is every module not named here plus the benchmark itself.
var cpuLayers = []string{"cluster.walk", "cluster.route", "netmodel", "faults", "eventq", "host", "rng", "guest", "msg", "mpi", "runtime", "other"}

// perLayer are the metrics of a traced run, with the layer map: which
// end-to-end metric on which workload each should move.
var perLayer = []metricDef{
	{Name: "experiments.call_s", Unit: "s", Better: "lower", moves: "wall_s on paper_grid only"},
	{Name: "experiments.baseline_misses", Unit: "count", Better: "lower", moves: "wall_s on paper_grid only"},
	{Name: "experiments.baseline_hits", Unit: "count", Better: "higher", moves: "wall_s on paper_grid only"},
	{Name: "experiments.cpu_per_wall", Unit: "ratio", Better: "higher", moves: "wall_s on paper_grid only"},
	{Name: "cluster.setup_ms", Unit: "ms", Better: "lower", moves: "call_p50_ms on wan64_graded"},
	{Name: "cluster.teardown_ms", Unit: "ms", Better: "lower", moves: "call_p50_ms on wan64_graded"},
	{Name: "cluster.quantum_eligible_ns.p50", Unit: "ns", Better: "lower", moves: "quanta_per_s and wall_s on wan64_graded (most) and paper_grid"},
	{Name: "cluster.quantum_eligible_ns.tail", Unit: "ns", Better: "lower", moves: "quanta_per_s and wall_s on wan64_graded (most) and paper_grid"},
	{Name: "cluster.quantum_ineligible_ns.p50", Unit: "ns", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "cluster.quantum_ineligible_ns.tail", Unit: "ns", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "cluster.gap_ns.p50", Unit: "ns", Better: "lower", moves: "quanta_per_s on wan64_graded"},
	{Name: "cluster.fast_full_share", Unit: "ratio", Better: "higher", moves: "quanta_per_s on paper_grid"},
	{Name: "cluster.fast_partial_share", Unit: "ratio", Better: "higher", moves: "quanta_per_s on wan64_graded; 0 on coarse64_traffic"},
	{Name: "cluster.fast_node_share", Unit: "ratio", Better: "higher", moves: "quanta_per_s on wan64_graded; 0 on coarse64_traffic"},
	{Name: "cluster.silent_share", Unit: "ratio", Better: "higher", moves: "quanta_per_s on all workloads"},
	{Name: "cpu.cluster.walk", Unit: "ratio", Better: "lower", moves: "wall_s on wan64_graded and paper_grid"},
	{Name: "route.packets", Unit: "count", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "route.deliveries", Unit: "count", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "route.straggler_share", Unit: "ratio", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "route.snap_share", Unit: "ratio", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "route.dropped", Unit: "count", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "route.duplicated", Unit: "count", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "cpu.cluster.route", Unit: "ratio", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "cpu.netmodel", Unit: "ratio", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "cpu.faults", Unit: "ratio", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "cpu.eventq", Unit: "ratio", Better: "lower", moves: "wall_s on wan64_graded >> paper_grid > coarse64_traffic"},
	{Name: "cpu.host", Unit: "ratio", Better: "lower", moves: "wall_s on coarse64_traffic and paper_grid; little on wan64_graded"},
	{Name: "cpu.rng", Unit: "ratio", Better: "lower", moves: "wall_s on coarse64_traffic and paper_grid; little on wan64_graded"},
	{Name: "host.busy_s", Unit: "s", Better: "lower", moves: "none: simulated host time, fixed by any speed-only change"},
	{Name: "host.idle_s", Unit: "s", Better: "lower", moves: "none: simulated host time, fixed by any speed-only change"},
	{Name: "host.barrier_s", Unit: "s", Better: "lower", moves: "none: simulated host time, fixed by any speed-only change"},
	{Name: "cpu.guest", Unit: "ratio", Better: "lower", moves: "wall_s on paper_grid"},
	{Name: "cpu.msg", Unit: "ratio", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "cpu.mpi", Unit: "ratio", Better: "lower", moves: "wall_s on coarse64_traffic"},
	{Name: "cpu.runtime", Unit: "ratio", Better: "lower", moves: "alloc_mb and peak_rss_mb on all workloads"},
	{Name: "cpu.other", Unit: "ratio", Better: "lower", moves: "wall_s on all workloads"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower", moves: "none: cost of the traced run itself"},
}

// printSpec prints the benchmark definition (the BENCHMARK.json content),
// the layer map and the host facts.
func printSpec() error {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Metric string `json:"metric"`
		Moves  string `json:"moves"`
	}
	var ws []workloadDef
	for _, w := range allWorkloads {
		ws = append(ws, workloadDef{w.name, w.why})
	}
	var layers []layerDef
	for _, d := range perLayer {
		layers = append(layers, layerDef{d.Name, d.moves})
	}
	spec := map[string]any{
		"benchmark": map[string]any{
			"command":     []string{"python3", "perfbench/run.py"},
			"paths":       []string{"perfbench"},
			"run_seconds": 25,
			"workloads":   ws,
			"end_to_end":  endToEnd,
			"per_layer":   perLayer,
		},
		"layers": layers,
		"host": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
