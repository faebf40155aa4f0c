// Command perfbench is the repository's benchmark. It runs one named
// workload in-process through the simulator's public entry points
// (experiments.Fig6/Fig7, cluster.Run), checks every call's output, and
// prints the end-to-end metrics or, with -trace 1, the per-layer metrics;
// the last line of its output is one JSON object.
//
//	python3 perfbench/run.py --workload wan64_graded --seed 3 --seconds 25 --trace 0
//
// The traced run attaches the benchmark's own obs.Observer, stamping the
// engine's hooks with wall-clock time, and CPU-profiles the process,
// charging each sample to a layer (see layerOf). The program itself is not
// instrumented.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var (
	workloadFlag = flag.String("workload", "", "workload to run: paper_grid, wan64_graded or coarse64_traffic")
	seedFlag     = flag.Uint64("seed", defaultSeed, "seed the inputs are generated from; output digests are checked against golden.json on the default seed")
	secondsFlag  = flag.Float64("seconds", 10, "run length: the run makes round(seconds / pass time on the reference host) passes, at least one (two when traced)")
	traceFlag    = flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs traced and prints the per-layer metrics")
	probeFlag    = flag.Bool("setup-probe", false, "build the workload's inputs, print the wall-clock time in Unix nanoseconds and exit (used to time set-up)")
	specFlag     = flag.Bool("spec", false, "print the benchmark definition, the layer map and host facts as JSON and exit")
	goldenFlag   = flag.String("write-golden", "", "run every call of every workload on the default seed and write the digests to this file")
)

// setupProbes is how many times a run sets up, in fresh processes, to
// report the median set-up time.
const setupProbes = 31

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	switch {
	case *specFlag:
		return printSpec()
	case *goldenFlag != "":
		return writeGolden(*goldenFlag)
	}
	w, err := findWorkload(*workloadFlag)
	if err != nil {
		return err
	}
	if *probeFlag {
		if _, err := prepare(w, *seedFlag); err != nil {
			return err
		}
		fmt.Println(time.Now().UnixNano())
		return nil
	}
	if !(*secondsFlag > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", *secondsFlag)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	b, err := prepare(w, *seedFlag)
	if err != nil {
		return err
	}
	passes := int(math.Round(*secondsFlag / w.passSeconds))
	var metrics map[string]float64
	if *traceFlag == 1 {
		metrics, err = b.traced(max(passes, 2))
	} else {
		metrics, err = b.untraced(max(passes, 1))
	}
	if err != nil {
		return err
	}
	return b.report(metrics, *traceFlag == 1)
}

// bench is one run of one workload.
type bench struct {
	w    *workload
	seed uint64
	// pass holds the calls every pass makes, in order.
	pass []call
	// golden holds the expected digests; nil off the default seed.
	golden  map[string]string
	digests map[string]string
	// names records call names in first-run order, for printing.
	names             []string
	attempted, failed int
}

// prepare is the benchmark's set-up: it builds every input of the workload
// and loads the goldens.
func prepare(w *workload, seed uint64) (*bench, error) {
	b := &bench{w: w, seed: seed, digests: map[string]string{}}
	pass, err := w.build(derive(seed, streamInputs))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	b.pass = pass
	if seed == defaultSeed {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		b.golden = g[w.name]
		if b.golden == nil {
			b.golden = map[string]string{}
		}
	}
	return b, nil
}

// call runs c, checks its output and returns it with its wall time.
func (b *bench) call(c call, tr *tracer) (outcome, time.Duration) {
	start := time.Now()
	out, err := c.run(tr)
	wall := time.Since(start)
	b.attempted++
	bad := out.bad
	if err != nil {
		bad = append(bad, err.Error())
	} else {
		bad = append(bad, checkSims(out.sims)...)
		if prev, ok := b.digests[c.name]; !ok {
			b.digests[c.name] = out.digest
			b.names = append(b.names, c.name)
		} else if prev != out.digest {
			bad = append(bad, fmt.Sprintf("digest %s differs from the first pass's %s", out.digest, prev))
		}
		if b.golden != nil && b.golden[c.name] != out.digest {
			bad = append(bad, fmt.Sprintf("digest %s, golden %q", out.digest, b.golden[c.name]))
		}
	}
	if len(bad) > 0 {
		b.failed++
		fmt.Printf("FAIL %s %s: %s\n", b.w.name, c.name, strings.Join(bad, "; "))
	}
	return out, wall
}

// untraced times passes of the workload and returns the end-to-end metrics.
//
// The reference host is a 2-vCPU VM whose neighbours on the physical
// machine take shared cache, memory bandwidth and clock headroom from it:
// they slow it by 10-50%, in episodes from under a second to many
// minutes, and process CPU time slows with it. Medians over a run spread
// by over 20% across runs made minutes apart. Two steps take most of that
// out. Noise only adds time, so each call counts at its best time over the
// run's passes, which removes the short episodes. A calibration (see
// calib.go) runs before every call, and the timings are scaled by
// calNominal over the run's best calibration, which removes the long ones:
// they read as the call's best time on the reference host when quiet. A
// change to the program moves its calls' times and not the calibration's,
// so it shows in full.
func (b *bench) untraced(passes int) (map[string]float64, error) {
	setup, err := b.probeSetup()
	if err != nil {
		return nil, err
	}
	// walls[i] holds every wall time, in seconds, of call i;
	// quanta[i] its quanta, the same on every pass.
	walls := make([][]float64, len(b.pass))
	quanta := make([]float64, len(b.pass))
	var allocs, all, cals []float64
	var ms runtime.MemStats
	cal := newCalibrator()
	for p := 0; p < passes; p++ {
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		for i, c := range b.pass {
			// Every call and calibration starts from a collected heap.
			runtime.GC()
			cals = append(cals, cal.run().Seconds())
			out, d := b.call(c, nil)
			walls[i] = append(walls[i], d.Seconds())
			quanta[i] = float64(out.quanta())
			all = append(all, d.Seconds())
		}
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.TotalAlloc-alloc0)/1e6)
	}
	scale := calNominal.Seconds() / slices.Min(cals)
	best := make([]float64, len(walls))
	var passBest, passMedian, passQuanta float64
	for i, w := range walls {
		best[i] = slices.Min(w) * scale
		passBest += best[i]
		passMedian += median(w)
		passQuanta += quanta[i]
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	for i, c := range b.pass {
		fmt.Printf("call %s: best %.3f ms scaled, median %.3f ms unscaled, %.0f quanta\n",
			c.name, 1e3*best[i], 1e3*median(walls[i]), quanta[i])
	}
	fmt.Printf("samples: %d passes of %d calls; the timings take each call's best of %d, scaled by %.4f; call_tail_ms is the slowest call; setup_s is the median of %d set-ups\n",
		passes, len(b.pass), passes, scale, len(setup))
	fmt.Printf("calibration: best %.3f ms, median %.3f ms of %d; nominal %.3f ms\n",
		1e3*slices.Min(cals), 1e3*median(cals), len(cals), 1e3*calNominal.Seconds())
	fmt.Printf("unscaled, for comparison: best wall_s %.6f; medians over the passes: wall_s %.6f call_p50_ms %.6f\n",
		passBest/scale, passMedian, 1e3*median(all))
	return map[string]float64{
		"wall_s":       passBest,
		"quanta_per_s": passQuanta / passBest,
		"call_p50_ms":  1e3 * median(best),
		"call_tail_ms": 1e3 * slices.Max(best),
		"setup_s":      median(setup),
		"alloc_mb":     median(allocs),
		"peak_rss_mb":  float64(ru.Maxrss) * 1024 / 1e6,
	}, nil
}

// probeSetup times the set-up from process start to the first timed call:
// each probe starts this binary in -setup-probe mode, which builds the
// workload's inputs and prints the time it was ready.
func (b *bench) probeSetup() ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		start := time.Now().UnixNano()
		cmd := exec.Command(self, "-setup-probe", "-workload", b.w.name, "-seed", strconv.FormatUint(b.seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		ready, err := strconv.ParseInt(strings.TrimSpace(string(stdout)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", stdout, err)
		}
		out = append(out, float64(ready-start)/1e9)
	}
	return out, nil
}

// traced runs each pass untraced and then traced, so trace_overhead
// compares the same calls made under the same conditions, and returns the
// per-layer metrics of the traced passes.
func (b *bench) traced(passes int) (map[string]float64, error) {
	tr := &tracer{}
	var (
		plainWalls, tracedWalls []float64
		expWalls                []float64
		expCPU, expWall         time.Duration
		hits, misses            int
		tot                     simTotals
		layers                  = map[string]int64{}
		prof                    bytes.Buffer
	)
	for p := 0; p < passes; p++ {
		if p%2 == 0 {
			start := time.Now()
			for _, c := range b.pass {
				b.call(c, nil)
			}
			plainWalls = append(plainWalls, time.Since(start).Seconds())
			continue
		}
		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		start := time.Now()
		for _, c := range b.pass {
			out, wall := b.call(c, tr)
			for _, s := range out.sims {
				tot.add(s)
			}
			if c.env != nil {
				expWalls = append(expWalls, wall.Seconds())
				expWall += wall
				expCPU += out.cpu
				hits += out.cache.Hits
				misses += out.cache.Misses
			}
		}
		tracedWalls = append(tracedWalls, time.Since(start).Seconds())
		pprof.StopCPUProfile()
		counts, err := layerSamples(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for k, v := range counts {
			layers[k] += v
		}
	}
	n := float64(len(tracedWalls))
	var samples int64
	for _, v := range layers {
		samples += v
	}
	elig, eligPct := tailOf(tr.eligibleNs)
	inelig, ineligPct := tailOf(tr.ineligible)
	fmt.Printf("samples: %d traced and %d untraced passes; %d CPU samples; %d eligible quanta (tail p%.2f), %d ineligible (tail p%.2f)\n",
		len(tracedWalls), len(plainWalls), samples, len(tr.eligibleNs), eligPct, len(tr.ineligible), ineligPct)
	if len(expWalls) > 0 {
		fmt.Println("note: experiments.Fig6/Fig7 attach no Observer and return no ground-truth statistics, so the hook-timed cluster.* metrics cover only the direct ground-truth call, and route.*, host.* and cluster.*_share the grid cells plus that call")
	}
	m := map[string]float64{
		"experiments.call_s":                 median(expWalls),
		"experiments.baseline_misses":        float64(misses) / n,
		"experiments.baseline_hits":          float64(hits) / n,
		"experiments.cpu_per_wall":           ratio(expCPU, expWall),
		"cluster.setup_ms":                   median(tr.setupMs),
		"cluster.teardown_ms":                median(tr.teardownMs),
		"cluster.quantum_eligible_ns.p50":    median(tr.eligibleNs),
		"cluster.quantum_eligible_ns.tail":   elig,
		"cluster.quantum_ineligible_ns.p50":  median(tr.ineligible),
		"cluster.quantum_ineligible_ns.tail": inelig,
		"cluster.gap_ns.p50":                 median(tr.gapNs),
		"cluster.fast_full_share":            ratio(tot.fastFull, tot.quanta),
		"cluster.fast_partial_share":         ratio(tot.fastPartial, tot.quanta),
		"cluster.fast_node_share":            ratio(tot.fastNode, tot.nodeQuanta),
		"cluster.silent_share":               ratio(tot.silent, tot.quanta),
		"route.packets":                      float64(tot.packets) / n,
		"route.deliveries":                   float64(tot.deliveries) / n,
		"route.straggler_share":              ratio(tot.stragglers, tot.deliveries),
		"route.snap_share":                   ratio(tot.snaps, tot.deliveries),
		"route.dropped":                      float64(tot.dropped) / n,
		"route.duplicated":                   float64(tot.duplicated) / n,
		"host.busy_s":                        tot.busy.Seconds() / n,
		"host.idle_s":                        tot.idle.Seconds() / n,
		"host.barrier_s":                     tot.barrier.Seconds() / n,
		"trace_overhead":                     median(tracedWalls)/median(plainWalls) - 1,
	}
	for _, l := range cpuLayers {
		m["cpu."+l] = ratio(layers[l], samples)
	}
	return m, nil
}

// report prints the digests, the metrics by name and unit, and the final
// JSON line.
func (b *bench) report(values map[string]float64, traced bool) error {
	for _, name := range b.names {
		fmt.Printf("digest %s %s seed %d %s\n", b.w.name, name, b.seed, b.digests[name])
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", d.Name, v)
		}
		fmt.Printf("%-36s %16.6f %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metric{v, d.Unit}
	}
	fmt.Printf("%-36s %16.6f (%d of %d calls)\n", "failed_frac", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeGolden records the digests of every call of every workload on the
// default seed.
func writeGolden(path string) error {
	g := map[string]map[string]string{}
	for _, w := range allWorkloads {
		b, err := prepare(w, defaultSeed)
		if err != nil {
			return err
		}
		b.golden = nil
		for _, c := range b.pass {
			b.call(c, nil)
		}
		if b.failed > 0 {
			return fmt.Errorf("%s: %d calls failed", w.name, b.failed)
		}
		g[w.name] = b.digests
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailOf returns the highest percentile of v with at least ten samples
// beyond it, and that percentile; with fewer than eleven samples, the
// maximum.
func tailOf(v []float64) (float64, float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := max(len(s)-11, 0)
	if len(s) < 11 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// processCPU returns the CPU time of all the process's threads. Getrusage
// fails only on a bad argument, which this call cannot pass.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
