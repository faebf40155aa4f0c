package experiments

import (
	"bytes"
	"testing"

	"clustersim/internal/cluster"
	"clustersim/internal/prof"
)

// TestReportStrategyIdentity is the report determinism gate: the
// attribution report of
//
//	clustersim -workload nas.is -nodes 8 -quantum Q -topo rack:4:500ns:2us -report …
//
// must be byte-identical under the reference strategy (every quantum
// through the event queue) and the production walk, at Q = 100µs (above
// every link latency) and at Q = 2µs (between the intra- and cross-rack
// levels, where the per-link lookahead partitioning decides which nodes
// walk loose).
func TestReportStrategyIdentity(t *testing.T) {
	w, err := ResolveWorkload("nas.is", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ParseTopo("rack:4:500ns:2us")
	if err != nil {
		t.Fatal(err)
	}
	env := DefaultEnv()
	env.Net.Switch = sw
	for _, q := range []string{"100us", "2us"} {
		policy, err := ParsePolicy(q, "")
		if err != nil {
			t.Fatal(err)
		}
		report := func(run func(cluster.Config) (*cluster.Result, error)) []byte {
			p := prof.New()
			if _, err := run(cluster.Config{
				Nodes:    8,
				Guest:    env.Guest,
				Net:      env.Net,
				Host:     env.Host,
				Policy:   policy,
				Program:  w.New,
				MaxGuest: env.MaxGuest,
				Profiler: p,
			}); err != nil {
				t.Fatalf("Q=%s: %v", q, err)
			}
			return p.Report().JSON()
		}
		if ref, prod := report(cluster.RunReference), report(cluster.Run); !bytes.Equal(ref, prod) {
			t.Errorf("Q=%s: report bytes differ between the reference and production strategies", q)
		}
	}
}
