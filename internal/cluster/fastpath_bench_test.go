package cluster

import (
	"testing"

	"clustersim/internal/netmodel"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// BenchmarkFastPathRack measures the partitioned walk at a quantum between
// the latency levels, where the scalar gate falls back to the event queue
// for every node but the matrix gate still walks the loose ones inline.
// Three geometries: "rack8" is a uniform two-rack fat-tree (both racks tight
// at mid-Q — no loose nodes, so matrix == scalar by construction; the honest
// negative control), "mixed8" is one tight rack plus four loose WAN
// singletons, and "mixed64" is the paper-scale motivating geometry — one
// tight rack plus 60 loose WAN nodes in the sync-overhead-dominated regime,
// where skipping the event queue for the loose majority pays the most.
func BenchmarkFastPathRack(b *testing.B) {
	scenarios := []struct {
		name  string
		nodes int
		net   func(nodes int) *netmodel.Model
		w     workloads.Workload
	}{
		{"rack8", 8, func(int) *netmodel.Model { return rackNet() },
			workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17)},
		{"mixed8", 8, mixedWANNet,
			workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17)},
		{"mixed64", 64, mixedWANNet,
			workloads.Silent(200 * simtime.Microsecond)},
	}
	for _, sc := range scenarios {
		for _, mode := range []struct {
			name string
			m    LookaheadMode
		}{{"scalar", LookaheadScalar}, {"matrix", LookaheadMatrix}} {
			b.Run(sc.name+"/"+mode.name, func(b *testing.B) {
				benchQuanta(b, production, func() Config {
					cfg := testConfig(sc.nodes, sc.w, fixed(2*simtime.Microsecond))
					cfg.Net = sc.net(sc.nodes)
					cfg.Lookahead = mode.m
					return cfg
				})
			})
		}
	}
}

// BenchmarkGroundTruthQuanta measures ground-truth (Q = 1µs) throughput in
// quanta per second under both execution strategies: "reference" walks
// every quantum through the event queue, "production" walks every node
// inline because every ground-truth quantum is provably safe.
func BenchmarkGroundTruthQuanta(b *testing.B) {
	w := workloads.Phases(3, 150*simtime.Microsecond, 32<<10)
	for _, st := range []strategy{reference, production} {
		b.Run(st.name, func(b *testing.B) {
			benchQuanta(b, st, func() Config { return testConfig(4, w, fixed(simtime.Microsecond)) })
		})
	}
}

// benchQuanta runs b.N fresh configurations under st and reports quanta/s.
func benchQuanta(b *testing.B, st strategy, mk func() Config) {
	var quanta int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := st.run(mk())
		if err != nil {
			b.Fatal(err)
		}
		quanta += int64(res.Stats.Quanta)
	}
	b.ReportMetric(float64(quanta)/b.Elapsed().Seconds(), "quanta/s")
}
