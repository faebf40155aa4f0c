package main

import (
	"testing"

	"clustersim/internal/cluster"
)

// TestWorkloadRegimes runs a shortened pass of each 64-node workload on the
// default seed and checks that it still stresses the layer it was chosen
// for, so that an edit to a topology or workload cannot quietly take a
// workload out of its regime. It also checks every input keeps the engine
// knobs at their zero values and passes Validate.
func TestWorkloadRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, w := range allWorkloads {
		b, err := prepare(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range b.pass {
			checkInputs(t, w.name, c)
		}
		var short []call
		switch w.name {
		case "wan64_graded":
			short = b.pass[:1]
		case "coarse64_traffic":
			short = b.pass
		default:
			continue
		}
		var tot simTotals
		for _, c := range short {
			out, _ := b.call(c, nil)
			for _, s := range out.sims {
				tot.add(s)
			}
		}
		if b.failed != 0 {
			t.Fatalf("%s: %d of %d calls failed their output check", w.name, b.failed, b.attempted)
		}
		switch w.name {
		case "wan64_graded":
			if tot.fastPartial != tot.quanta || tot.quanta == 0 {
				t.Errorf("wan64_graded: %d of %d quanta partially fast-path eligible, want all", tot.fastPartial, tot.quanta)
			}
		case "coarse64_traffic":
			if tot.fastNode != 0 {
				t.Errorf("coarse64_traffic: FastNodeQuanta = %d, want 0", tot.fastNode)
			}
			if share := ratio(tot.stragglers, tot.deliveries); share <= 0.5 {
				t.Errorf("coarse64_traffic: straggler share %.3f, want > 0.5", share)
			}
		}
	}
}

func checkInputs(t *testing.T, workload string, c call) {
	t.Helper()
	if cfg := c.cfg; cfg != nil {
		if cfg.Workers != 0 || cfg.Lookahead != cluster.LookaheadMatrix || cfg.LossRate != 0 ||
			cfg.TraceQuanta || cfg.TracePackets || cfg.Observer != nil || cfg.Profiler != nil {
			t.Errorf("%s %s: engine knobs set: %+v", workload, c.name, *cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s %s: %v", workload, c.name, err)
		}
	}
	if env := c.env; env != nil {
		if env.IntraWorkers != 0 || env.Profiles != nil || env.Faults != nil {
			t.Errorf("%s %s: experiment env knobs set", workload, c.name)
		}
	}
	if (c.cfg == nil) == (c.env == nil) {
		t.Errorf("%s %s: want exactly one of a cluster.Config and an experiments.Env", workload, c.name)
	}
}
