package experiments

import (
	"math"
	"strings"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/quantum"
)

// FuzzParseSpecs drives the CLI and manifest spec grammar — topology,
// quantum policy (as a fixed quantum and as a dyn spec), fault plan and
// manifest JSON — with one input each. No parser may panic, and whatever a
// parser accepts must pass its Validate with positive, finite durations and
// rates.
func FuzzParseSpecs(f *testing.F) {
	for _, seed := range []string{
		"rack:4:500ns:2us", "mixedwan:4:500ns:50us", "rack:0:1us:1us", "ring:4:1us:2us",
		"1us", "0s", "NaNus", "9999999999999s",
		"1us:1ms:1.03:0.02", "1us:1ms:NaN:0.5", "1us:1ms:Inf:0.5", "1ms:1us:1.03:0.02",
		"loss=0.1,dup=0.05,jitter=2us,down=1ms-2ms,slow=1:2", "loss=NaN", "slow=0:NaN", "slow=0:Inf",
		tinyManifest,
		`{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "phases", "nodes": 2, "scale": -1, "max_guest": "-5ms"}]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if sw, err := ParseTopo(spec); err == nil {
			checkSwitch(t, spec, sw, 8)
		}
		if policy, err := ParsePolicy(spec, ""); err == nil {
			checkPolicy(t, spec, policy)
		}
		if policy, err := ParsePolicy("", spec); err == nil {
			checkPolicy(t, spec, policy)
		}
		if plan, err := faults.Parse(spec, 1); err == nil {
			checkPlan(t, spec, plan)
		}
		m, err := ParseManifest(strings.NewReader(spec))
		if err != nil {
			return
		}
		for i := range m.Scenarios {
			sc := &m.Scenarios[i]
			cfg, err := sc.config()
			if err != nil {
				t.Fatalf("accepted manifest scenario %q does not resolve: %v", sc.Name, err)
			}
			if sc.Scale < 0 || cfg.env.MaxGuest <= 0 {
				t.Fatalf("scenario %q: scale %v, max guest %v accepted", sc.Name, sc.Scale, cfg.env.MaxGuest)
			}
			if sc.Topo != "" {
				checkSwitch(t, sc.Name, cfg.env.Net.Switch, sc.Nodes)
			}
			checkPolicy(t, sc.Name, cfg.policy)
			checkPlan(t, sc.Name, cfg.plan)
			if err := cfg.plan.ValidateNodes(sc.Nodes); err != nil {
				t.Fatalf("scenario %q: %v", sc.Name, err)
			}
		}
	})
}

// checkSwitch requires the network around an accepted switch to validate
// and every distinct pair among the first nodes to have positive latency.
func checkSwitch(t *testing.T, spec string, sw netmodel.SwitchModel, nodes int) {
	t.Helper()
	m := netmodel.Paper()
	m.Switch = sw
	if err := m.Validate(nodes); err != nil {
		t.Fatalf("%q: accepted topology does not validate: %v", spec, err)
	}
	nodes = min(nodes, 8)
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if l := sw.Latency(netmodel.MinProbe(), src, dst); src != dst && l <= 0 {
				t.Fatalf("%q: link %d->%d latency %v, want positive", spec, src, dst, l)
			}
		}
	}
}

// checkPolicy requires an accepted policy to produce positive quanta, and an
// adaptive one to carry finite bounds and factors that Validate accepts.
func checkPolicy(t *testing.T, spec string, factory func() quantum.Policy) {
	t.Helper()
	p := factory()
	if a, ok := p.(*quantum.Adaptive); ok {
		if err := a.Validate(); err != nil {
			t.Fatalf("%q: accepted adaptive policy does not validate: %v", spec, err)
		}
		if !finite(a.Inc) || !finite(a.Dec) {
			t.Fatalf("%q: adaptive factors inc %v, dec %v are not finite", spec, a.Inc, a.Dec)
		}
	}
	q := p.First()
	for step := 0; ; step++ {
		if q <= 0 {
			t.Fatalf("%q: quantum %d is %v, want positive", spec, step, q)
		}
		if step == 8 {
			return
		}
		q = p.Next(quantum.Feedback{Packets: step % 2})
	}
}

// checkPlan requires an accepted fault plan to validate with finite rates,
// a non-negative jitter and finite positive slowdowns.
func checkPlan(t *testing.T, spec string, p *faults.Plan) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("%q: accepted fault plan does not validate: %v", spec, err)
	}
	if p == nil {
		return
	}
	if l := p.Default; !finite(l.Loss) || !finite(l.Dup) || l.Jitter < 0 {
		t.Fatalf("%q: link loss %v, dup %v, jitter %v", spec, l.Loss, l.Dup, l.Jitter)
	}
	for n, s := range p.NodeSlowdown {
		if !finite(s) || s <= 0 {
			t.Fatalf("%q: node %d slowdown %v, want positive and finite", spec, n, s)
		}
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
