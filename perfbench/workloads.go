package main

import (
	"fmt"
	"math"
	"time"

	"clustersim/internal/cluster"
	"clustersim/internal/experiments"
	"clustersim/internal/faults"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// defaultSeed is the seed the committed golden digests were recorded on.
const defaultSeed = 1

// gridScale is the compute scale of paper_grid, as in `paperfigs -scale
// 0.1`: a pass then takes about 2.5 s instead of 5 s at 0.25, so a run tries
// each call twice as often for its best time (see untraced).
const gridScale = 0.1

// A workload is a fixed list of calls per pass into the program's public
// entry points, built from a seed.
type workload struct {
	name string
	why  string
	// passSeconds is one pass's wall time on the reference host (2-vCPU
	// Xeon VM, go1.24) when its neighbours are busy, as they mostly are; it
	// is about 1.4 times the time when quiet. A run makes
	// round(seconds/passSeconds) passes, so the parent and a change time
	// the same work.
	passSeconds float64
	// build makes the calls of one pass from a seed.
	build func(seed uint64) (pass []call, err error)
}

// A call is one timed invocation of a public entry point.
type call struct {
	name string
	run  func(tr *tracer) (outcome, error)
	// The call's inputs: cfg for a cluster.Run call, env for an
	// experiments call.
	cfg *cluster.Config
	env *experiments.Env
}

// sim is one simulation whose statistics a call exposes.
type sim struct {
	nodes int
	stats cluster.Stats
	// groundTruth marks a Q = 1µs run (no stragglers allowed); faulty a run
	// with a fault plan (the only runs allowed to drop or duplicate).
	groundTruth, faulty bool
}

// outcome is what the benchmark keeps of a call's result.
type outcome struct {
	digest string
	sims   []sim
	cache  experiments.BaselineCacheStats
	// cpu is the process CPU time spent in an experiments call.
	cpu time.Duration
	// bad lists output checks that failed.
	bad []string
}

func (o *outcome) quanta() int {
	n := 0
	for _, s := range o.sims {
		n += s.stats.Quanta
	}
	return n
}

var allWorkloads = []*workload{
	{
		name:        "paper_grid",
		why:         "Fig 6 and 7 grids at 2/4/8 nodes plus one Q=1us ground truth: small clusters, shallow event queue, host jitter and guest stepping share the work; the only grid fan-out and baseline cache user",
		passSeconds: 3.1,
		build:       buildPaperGrid,
	},
	{
		name:        "wan64_graded",
		why:         "64 nodes, tight rack plus WAN singletons at Q=5us: every quantum partially fast-path eligible yet walked through the event queue",
		passSeconds: 2.1,
		build:       buildWAN64,
	},
	{
		name:        "coarse64_traffic",
		why:         "NAS IS/FT at 64 nodes Q=100us and faulty reliable-phases at 32 nodes: no fast path, mostly stragglers, host model and routing dominate",
		passSeconds: 0.7,
		build:       buildCoarse64,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// derive maps the benchmark seed to independent per-purpose seeds
// (splitmix64 finalizer), so the program only ever sees generated values.
func derive(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

const (
	streamHost    = iota
	streamFaults            // + plan index << 16
	streamUniform           // + call index
	streamInputs  = 1 << 32 // the seed a workload is built from
)

func seededEnv(seed uint64) experiments.Env {
	env := experiments.DefaultEnv()
	env.Host.Seed = derive(seed, streamHost)
	return env
}

func buildPaperGrid(seed uint64) (pass []call, err error) {
	figs := []struct {
		name string
		fn   func(experiments.Env, float64, []int) ([]experiments.AggRow, []experiments.Cell, error)
	}{{"fig6", experiments.Fig6}, {"fig7", experiments.Fig7}}
	for _, n := range []int{2, 4, 8} {
		for _, f := range figs {
			env := seededEnv(seed)
			// One simulation at a time: a pool of 2 on a 2-core host
			// spread passes over 3.9–5.2 s, a pool of 1 over 7.1–7.5 s.
			env.Workers = 1
			pass = append(pass, call{name: fmt.Sprintf("%s/n%d", f.name, n), env: &env, run: func(*tracer) (outcome, error) {
				env := env
				env.Baselines = experiments.NewBaselineCache()
				cpu0 := processCPU()
				rows, cells, err := f.fn(env, gridScale, []int{n})
				if err != nil {
					return outcome{}, err
				}
				out := outcome{digest: digestGrid(rows, cells), cache: env.Baselines.Stats(), cpu: processCPU() - cpu0}
				for _, c := range cells {
					out.sims = append(out.sims, sim{nodes: c.Nodes, stats: c.Stats})
					if !(c.Metric > 0) || math.IsInf(c.Metric, 0) {
						out.bad = append(out.bad, fmt.Sprintf("%s/%d/%s reported metric %v", c.Workload, c.Nodes, c.Config, c.Metric))
					}
				}
				return out, nil
			}})
		}
	}
	// Fig6/Fig7 keep their ground-truth runs to themselves, so one runs
	// directly: it shows that Q = 1µs makes no stragglers and exposes the
	// engine hooks on this workload.
	w, err := experiments.ResolveWorkload("nas.cg", gridScale)
	if err != nil {
		return nil, err
	}
	gt, err := runCall("ground_truth/nas.cg/n8", seededEnv(seed), w, 8, "1us", nil)
	if err != nil {
		return nil, err
	}
	return append(pass, gt), nil
}

func buildWAN64(seed uint64) (pass []call, err error) {
	sw, err := experiments.ParseTopo("mixedwan:8:500ns:50us")
	if err != nil {
		return nil, err
	}
	for i := 0; i < 10; i++ {
		env := seededEnv(seed)
		env.Net.Switch = sw
		w := workloads.Uniform(200, 4000, 100*simtime.Microsecond, derive(seed, streamUniform+uint64(i)))
		c, err := runCall(fmt.Sprintf("uniform/%d", i), env, w, 64, "5us", nil)
		if err != nil {
			return nil, err
		}
		pass = append(pass, c)
	}
	return pass, nil
}

func buildCoarse64(seed uint64) (pass []call, err error) {
	type spec struct {
		name, workload string
		nodes          int
		quantum        string
		plan           *faults.Plan
	}
	specs := []spec{
		{"nas.is/n64", "nas.is", 64, "100us", nil},
		{"nas.ft/n64", "nas.ft", 64, "100us", nil},
	}
	// Two fault plans: one plan's draws move the run's quanta by up to
	// 6%, and the faulty runs make most of the pass's quanta.
	for j := uint64(0); j < 2; j++ {
		plan, err := faults.Parse("loss=0.02,dup=0.01,jitter=2us", derive(seed, streamFaults+j<<16))
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec{fmt.Sprintf("reliable-phases/n32/faults%d", j), "reliable-phases", 32, "20us", plan})
	}
	for _, s := range specs {
		w, err := experiments.ResolveWorkload(s.workload, 1)
		if err != nil {
			return nil, err
		}
		c, err := runCall(s.name, seededEnv(seed), w, s.nodes, s.quantum, s.plan)
		if err != nil {
			return nil, err
		}
		pass = append(pass, c)
	}
	return pass, nil
}

// runCall makes a direct cluster.Run call. Engine knobs (Workers,
// Lookahead, LossRate, tracing) stay at their zero values, so the benchmark
// times the path users get.
func runCall(name string, env experiments.Env, w workloads.Workload, nodes int, quantumSpec string, plan *faults.Plan) (call, error) {
	policy, err := experiments.ParsePolicy(quantumSpec, "")
	if err != nil {
		return call{}, err
	}
	cfg := cluster.Config{
		Nodes:    nodes,
		Guest:    env.Guest,
		Net:      env.Net,
		Host:     env.Host,
		Policy:   policy,
		Program:  w.New,
		MaxGuest: env.MaxGuest,
		Faults:   plan,
	}
	if err := cfg.Validate(); err != nil {
		return call{}, fmt.Errorf("%s: %w", name, err)
	}
	groundTruth := quantumSpec == "1us"
	return call{name: name, cfg: &cfg, run: func(tr *tracer) (outcome, error) {
		cfg := cfg
		if tr != nil {
			cfg.Observer = tr
			tr.begin()
		}
		res, err := cluster.Run(cfg)
		if tr != nil {
			tr.end(err == nil, res)
		}
		if err != nil {
			return outcome{}, err
		}
		out := outcome{
			digest: digestResult(res),
			sims:   []sim{{nodes: nodes, stats: res.Stats, groundTruth: groundTruth, faulty: plan != nil}},
		}
		if v, ok := res.Metric(w.Metric); !ok || !(v > 0) || math.IsInf(v, 0) {
			out.bad = append(out.bad, fmt.Sprintf("metric %q = %v (reported %v)", w.Metric, v, ok))
		}
		return out, nil
	}}, nil
}
